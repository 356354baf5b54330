/* The Philox keys of replica specs, for core_process._stream_keys.
 *
 * mrw_stream_keys writes the (master_seed, replica_index) row of each of the
 * items lo .. hi-1 of a sequence of specs: an exact list or tuple in place,
 * any other sequence as the list that its iterator gives (PySequence_Fast).
 * Each item must be an RngStreamSpec or a subclass, which stores both fields
 * as exact ints in 0 .. 2**64 - 1 at construction; they are read from their
 * slots. Any other item raises TypeError naming its type and its index in
 * the caller's sequence, and an unset slot (a spec made without __init__) its
 * descriptor's AttributeError.
 * The interpreter lock is held (the library binds this through ctypes.PyDLL)
 * and all is read by borrowed reference: a type check, two slot reads and an
 * int's conversion run no Python code, so nothing changes the specs during
 * the pass. Raising may run finalizers, so the pass ends at its first error. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <stdint.h>

/* The member of the object slot name of type, or NULL with an exception set. */
static PyMemberDef *slot_member(PyObject *type, const char *name)
{
    PyObject *descr = PyObject_GetAttrString(type, name);
    PyMemberDef *member = NULL;
    if (descr != NULL && Py_IS_TYPE(descr, &PyMemberDescr_Type) &&
        ((PyMemberDescrObject *)descr)->d_member->type == T_OBJECT_EX)
        member = ((PyMemberDescrObject *)descr)->d_member;
    else if (descr != NULL)
        PyErr_Format(PyExc_TypeError, "%s is no object slot of %R", name, type);
    Py_XDECREF(descr);
    return member;
}

/* Store the int value in *key: 0, or -1 with an exception set. On 3.11 an
 * exact int below 2**30 is read from its one digit; any other value goes
 * through the call (OverflowError if negative or wider than 64 bits). */
static int to_key(PyObject *value, uint64_t *key)
{
#if PY_VERSION_HEX >= 0x030B0000 && PY_VERSION_HEX < 0x030C0000
    Py_ssize_t size = PyLong_CheckExact(value) ? Py_SIZE(value) : -1;
    if (size == 0 || size == 1) {
        *key = size ? ((PyLongObject *)value)->ob_digit[0] : 0;
        return 0;
    }
#endif
    *key = PyLong_AsUnsignedLongLong(value);
    return *key == (uint64_t)-1 && PyErr_Occurred() ? -1 : 0;
}

/* Fill keys[i - lo] with the keys of item i of specs for i = lo .. hi-1;
 * spec_type is the slotted spec class, and base the caller's index of item 0
 * (specs may be a slice), which errors name. 0, or -1 with an exception set. */
int mrw_stream_keys(PyObject *specs, PyObject *spec_type, uint64_t (*keys)[2], Py_ssize_t lo, Py_ssize_t hi,
                    Py_ssize_t base)
{
    PyMemberDef *fields[2] = {slot_member(spec_type, "master_seed"), NULL};
    PyObject *items;
    Py_ssize_t n;
    int status = -1;
    if (fields[0] == NULL || (fields[1] = slot_member(spec_type, "replica_index")) == NULL ||
        (items = PySequence_Fast(specs, "the specs are not iterable")) == NULL)
        return -1;
    n = PySequence_Fast_GET_SIZE(items);
    if (lo < 0 || lo > hi || hi > n) {
        PyErr_Format(PyExc_ValueError, "no item range %zd .. %zd of %zd items", lo, hi, n);
        goto done;
    }
    Py_ssize_t offsets[2] = {fields[0]->offset, fields[1]->offset};
    for (Py_ssize_t i = lo; i < hi; i++) {
        PyObject *spec = PySequence_Fast_GET_ITEM(items, i);
        if (!PyObject_TypeCheck(spec, (PyTypeObject *)spec_type)) {
            PyErr_Format(PyExc_TypeError, "item %zd of the specs is of type %.200s, not %.200s", base + i,
                         Py_TYPE(spec)->tp_name, ((PyTypeObject *)spec_type)->tp_name);
            goto done;
        }
        for (int f = 0; f < 2; f++) {
            PyObject *value = *(PyObject **)((char *)spec + offsets[f]);
            if (value == NULL) {
                Py_XDECREF(PyMember_GetOne((const char *)spec, fields[f]));  /* raises AttributeError */
                goto done;
            }
            if (to_key(value, &keys[i - lo][f]) < 0)
                goto done;
        }
    }
    status = 0;
done:
    Py_DECREF(items);
    return status;
}
