/* The Philox keys of a sequence of replica specs, for
 * core_process._stream_keys.
 *
 * mrw_stream_keys walks the sequence once with its iterator and writes the
 * (master_seed, replica_index) row of each item. An item of exactly the spec
 * type has both fields read from their slots, at the offsets that the type's
 * member descriptors give; any other item (a subclass, or any object with
 * the two attributes) is read by a generic attribute lookup, as is a slot
 * that is unset, which so raises the AttributeError of that lookup. Each
 * value converts as array.array("Q") converts it: an int as it is, anything
 * else through __index__ first, so a float raises TypeError and a negative
 * or too large value OverflowError.
 *
 * The interpreter lock is held throughout (the library is bound through
 * ctypes.PyDLL for this function). An item is held by a strong reference
 * while it is read, and so is each field value while it converts, since
 * __index__ can run any Python code. If that code changes the length of the
 * sequence, the item count no longer matches the rows and the call raises
 * rather than leave a row unfilled or write past the last one.
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

/* Store field name of spec in *key: from the slot at offset when offset is
 * not -1 and the slot is set, else by attribute lookup. 0, or -1 with an
 * exception set. */
static int read_field(PyObject *spec, Py_ssize_t offset, PyObject *name, uint64_t *key)
{
    PyObject *value = offset < 0 ? NULL : *(PyObject **)((char *)spec + offset);
    if (value != NULL)
        Py_INCREF(value);
    else if ((value = PyObject_GetAttr(spec, name)) == NULL)
        return -1;
    if (!PyLong_Check(value)) {
        Py_SETREF(value, PyNumber_Index(value));
        if (value == NULL)
            return -1;
    }
    *key = PyLong_AsUnsignedLongLong(value);
    Py_DECREF(value);
    return *key == (uint64_t)-1 && PyErr_Occurred() ? -1 : 0;
}

/* Fill keys[i] with the (master_seed, replica_index) of item i of specs, for
 * the n items the caller found; spec_type is the slotted spec class. Returns
 * 0, or -1 with an exception set, also when specs yields other than n
 * items. */
int mrw_stream_keys(PyObject *specs, PyObject *spec_type, uint64_t (*keys)[2], Py_ssize_t n)
{
    PyObject *names[2] = {PyUnicode_InternFromString("master_seed"), PyUnicode_InternFromString("replica_index")};
    PyObject *items = NULL, *spec;
    Py_ssize_t slots[2] = {-1, -1}, i = 0;
    int status = -1;
    if (names[0] == NULL || names[1] == NULL)
        goto done;
    for (int f = 0; f < 2; f++)
        if ((slots[f] = slot_offset(spec_type, names[f])) < 0)
            goto done;
    if ((items = PyObject_GetIter(specs)) == NULL)
        goto done;
    while ((spec = PyIter_Next(items)) != NULL) {
        int exact = Py_IS_TYPE(spec, (PyTypeObject *)spec_type), failed = i == n;
        for (int f = 0; f < 2 && !failed; f++)
            failed = read_field(spec, exact ? slots[f] : -1, names[f], &keys[i][f]);
        Py_DECREF(spec);
        if (failed) {
            if (i == n)
                PyErr_Format(PyExc_RuntimeError, "the specs grew past %zd items while their keys were read", n);
            goto done;
        }
        i++;
    }
    if (PyErr_Occurred())
        goto done;
    if (i < n) {
        PyErr_Format(PyExc_RuntimeError, "the specs shrank to %zd of %zd items while their keys were read", i, n);
        goto done;
    }
    status = 0;
done:
    Py_XDECREF(items);
    Py_XDECREF(names[0]);
    Py_XDECREF(names[1]);
    return status;
}
