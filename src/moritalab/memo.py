"""One memo for results that describe an object.

``@memo("x")`` stores each result of the decorated function in the
``__dict__`` of its argument ``x``, the owner, the way
``functools.cached_property`` stores its value.  An entry lives as long as
its owner: garbage collection frees the two together, and the function
itself holds nothing.  The owner is the object the result describes, such
as the module of a tensor product or the ring of an enumeration.  Entries
about short-lived objects kept on a long-lived one, such as a bimodule or a
ring, would live as long as that object.  ``owner`` may also be a function
of the arguments that returns the owner's parameter name.

The key is every other argument, bound through the signature, so defaults
and keywords do not matter: ``f(a, b)`` and ``f(a, b, budget=None)`` share
one entry.  Integers and strings compare by value, every other argument by
identity, and an argument that compares by value in any other way is
refused.  Only a miss is tested for such arguments: a hit's key equals a
stored key, which passed the test.  The entry holds the arguments it is
keyed by, so their identities stay valid while it lives.  A call that
raises stores nothing.

``@memo("xs", each=True)`` keeps one entry per owner of a batch: ``xs`` is
a tuple of owners, the function returns one result per owner in order, and
it is called only with the owners that have no entry yet, each once.  A
later call with other owners therefore computes only for the new ones.
"""

from __future__ import annotations

import functools
import inspect
from numbers import Integral

_BY_VALUE = (str, int, Integral)   # cheapest test first
_MISSING = object()


def memo(owner, *, each: bool = False):
    """Decorator memoising a function in the ``__dict__`` of its owner."""
    def decorate(fn):
        signature = inspect.signature(fn)
        index = {name: i for i, name in enumerate(signature.parameters)}
        fixed = index[owner] if isinstance(owner, str) else None
        slot = f"{fn.__module__}.{fn.__qualname__}"  # never an attribute name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if kwargs or len(args) != len(index):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                args = bound.args
            at = fixed if fixed is not None else index[owner(*args)]
            key = args[:at] + args[at + 1:]
            if each:
                return _each_owner(fn, slot, args, at, key)
            entries = vars(args[at])
            table = entries.get(slot)
            if table is None:
                table = entries[slot] = {}
            try:
                result = table.get(key, _MISSING)
            except TypeError:   # unhashable, so refused below
                result = _MISSING
            if result is _MISSING:
                _refuse_by_value(fn, key)
                result = table[key] = fn(*args)
            return result

        return wrapper

    return decorate


def _each_owner(fn, slot: str, args: tuple, at: int, key: tuple) -> tuple:
    """The results of a batch of owners, computed for those without one."""
    tables = {obj: vars(obj).setdefault(slot, {}) for obj in args[at]}
    try:
        fresh = tuple(obj for obj, table in tables.items() if key not in table)
    except TypeError:   # unhashable, so refused below
        fresh = tuple(tables)
    if fresh:
        _refuse_by_value(fn, key)
        results = fn(*args[:at], fresh, *args[at + 1:])
        for obj, result in list(zip(fresh, results, strict=True)):
            tables[obj][key] = result
    return tuple(tables[obj][key] for obj in args[at])


def _refuse_by_value(fn, key: tuple) -> None:
    for value in key:
        if (type(value).__eq__ is not object.__eq__
                and not isinstance(value, _BY_VALUE)):
            raise TypeError(
                f"{fn.__qualname__} cannot be memoised on a "
                f"{type(value).__name__}, which compares by value")
