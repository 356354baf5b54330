/* The Philox keys of replica specs, for core_process._stream_keys.
 *
 * mrw_stream_keys writes the (master_seed, replica_index) row of each of the
 * items lo .. hi-1 of a sequence of specs. An exact list or tuple is read in
 * place, by index; any other sequence is first gathered into a list by its
 * iterator (PySequence_Fast), so the caller hands it only the items it wants.
 * An item of exactly the spec type has both fields read from their slots, at
 * the offsets that the type's member descriptors give; any other item (a
 * subclass, or any object with the two attributes) is read by a generic
 * attribute lookup, as is a slot that is unset, which so raises the
 * AttributeError of that lookup. Each value converts as array.array("Q")
 * converts it: an int as it is, anything else through __index__ first, so a
 * float raises TypeError and a negative or too large value OverflowError.
 *
 * The interpreter lock is held throughout (the library is bound through
 * ctypes.PyDLL for this function). An item of exactly the spec type whose two
 * slots hold exact ints is read by borrowed reference, the item and its
 * values alike: reading two slots and converting an exact int calls no
 * Python code and frees nothing, so the lock is never released and nothing
 * can change the sequence, the item or its fields while they are read. The
 * one exception is an int out of range, whose OverflowError may start the
 * garbage collector and so run finalizers; the pass then stops without
 * touching an item again. Every other item is held by a strong reference
 * while it is read, and so is each field value while it converts, since an
 * attribute lookup or __index__ can run any Python code. That code may change
 * the sequence, so its length is checked against the n items the caller saw
 * before each item and after the last, and a change raises rather than read
 * past its end or fill rows from items that have moved.
 *
 * This source needs the CPython headers; walk_kernel.c does not, and both
 * are built into one library. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <stdint.h>

/* The offset of the object slot that the member descriptor name of type
 * reads, or -1 with an exception set. */
static Py_ssize_t slot_offset(PyObject *type, PyObject *name)
{
    PyObject *descr = PyObject_GetAttr(type, name);
    Py_ssize_t offset = -1;
    if (descr == NULL)
        return -1;
    if (Py_IS_TYPE(descr, &PyMemberDescr_Type) && ((PyMemberDescrObject *)descr)->d_member->type == T_OBJECT_EX)
        offset = ((PyMemberDescrObject *)descr)->d_member->offset;
    else
        PyErr_Format(PyExc_TypeError, "%R is no object slot of %R", name, type);
    Py_DECREF(descr);
    return offset;
}

/* The value in the slot of spec at offset, borrowed; NULL when unset. */
static PyObject *slot_value(PyObject *spec, Py_ssize_t offset)
{
    return *(PyObject **)((char *)spec + offset);
}

/* Store the int value in *key. 0, or -1 with an exception set. On CPython
 * 3.11 an int of at most one digit (below 2**30) is read from that digit,
 * which halves a key pass over such ints; any other int goes through the
 * call, as does every int on other versions, whose layout differs. */
static int to_key(PyObject *value, uint64_t *key)
{
#if PY_VERSION_HEX >= 0x030B0000 && PY_VERSION_HEX < 0x030C0000
    Py_ssize_t size = Py_SIZE(value);
    if (size == 0 || size == 1) {
        *key = size ? ((PyLongObject *)value)->ob_digit[0] : 0;
        return 0;
    }
#endif
    *key = PyLong_AsUnsignedLongLong(value);
    return *key == (uint64_t)-1 && PyErr_Occurred() ? -1 : 0;
}

/* Store field name of spec in *key: from the slot at offset when offset is
 * not -1 and the slot is set, else by attribute lookup, holding the value by
 * a strong reference while it converts. 0, or -1 with an exception set. */
static int read_field(PyObject *spec, Py_ssize_t offset, PyObject *name, uint64_t *key)
{
    PyObject *value = offset < 0 ? NULL : slot_value(spec, offset);
    int status;
    if (value != NULL)
        Py_INCREF(value);
    else if ((value = PyObject_GetAttr(spec, name)) == NULL)
        return -1;
    if (!PyLong_Check(value)) {
        Py_SETREF(value, PyNumber_Index(value));
        if (value == NULL)
            return -1;
    }
    status = to_key(value, key);
    Py_DECREF(value);
    return status;
}

/* Whether spec is of exactly spec_type with an exact int in both slots, and
 * so is read by borrowed reference. */
static int plain_spec(PyObject *spec, PyObject *spec_type, const Py_ssize_t slots[2])
{
    if (!Py_IS_TYPE(spec, (PyTypeObject *)spec_type))
        return 0;
    for (int f = 0; f < 2; f++) {
        PyObject *value = slot_value(spec, slots[f]);
        if (value == NULL || !PyLong_CheckExact(value))
            return 0;
    }
    return 1;
}

/* Fill keys[i - lo] with the (master_seed, replica_index) of item i of specs
 * for i = lo .. hi-1, specs having the n items the caller found, 0 <= lo <=
 * hi <= n; spec_type is the slotted spec class. Returns 0, or -1 with an
 * exception set, also when specs has other than n items at any point of the
 * pass. */
int mrw_stream_keys(PyObject *specs, PyObject *spec_type, uint64_t (*keys)[2], Py_ssize_t lo, Py_ssize_t hi,
                    Py_ssize_t n)
{
    PyObject *names[2] = {PyUnicode_InternFromString("master_seed"), PyUnicode_InternFromString("replica_index")};
    PyObject *items = NULL;
    Py_ssize_t slots[2] = {-1, -1};
    int status = -1;
    if (names[0] == NULL || names[1] == NULL)
        goto done;
    if (lo < 0 || lo > hi || hi > n) {
        PyErr_Format(PyExc_ValueError, "no item range %zd .. %zd of %zd items", lo, hi, n);
        goto done;
    }
    for (int f = 0; f < 2; f++)
        if ((slots[f] = slot_offset(spec_type, names[f])) < 0)
            goto done;
    if ((items = PySequence_Fast(specs, "the specs are not iterable")) == NULL)
        goto done;
    for (Py_ssize_t i = lo;; i++) {
        Py_ssize_t size = PySequence_Fast_GET_SIZE(items);
        PyObject *spec;
        int failed = 0;
        if (size != n) {
            if (size > n)
                PyErr_Format(PyExc_RuntimeError, "the specs grew past %zd items while their keys were read", n);
            else
                PyErr_Format(PyExc_RuntimeError, "the specs shrank to %zd of %zd items while their keys were read",
                             size, n);
            goto done;
        }
        if (i == hi)
            break;
        spec = PySequence_Fast_GET_ITEM(items, i);
        if (plain_spec(spec, spec_type, slots)) {
            for (int f = 0; f < 2 && !failed; f++)
                failed = to_key(slot_value(spec, slots[f]), &keys[i - lo][f]);
        } else {
            int exact = Py_IS_TYPE(spec, (PyTypeObject *)spec_type);
            Py_INCREF(spec);
            for (int f = 0; f < 2 && !failed; f++)
                failed = read_field(spec, exact ? slots[f] : -1, names[f], &keys[i - lo][f]);
            Py_DECREF(spec);
        }
        if (failed)
            goto done;
    }
    status = 0;
done:
    Py_XDECREF(items);
    Py_XDECREF(names[0]);
    Py_XDECREF(names[1]);
    return status;
}
