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

``@memo("x", by_value=True)`` keys by value instead: the entries live on
the value token of the owner (``value_token``), shared by every object of
the same value, and every other argument that has a ``value_key`` is keyed
by its token.  An object's token is interned by ``type(obj).value_key``
on first use and kept in the object's ``__dict__``; the intern table holds
tokens weakly, so a token and its entries die with the last object of its
value, as identity entries die with their owner.  Use it only for results
that are plain data determined by the arguments' values, such as a verdict
or a read-only array, so that a fresh but equal object, a cover, a
cokernel, a dual or a sum built again, is decided once.  A result that
holds or names its arguments, such as a module, a map or a window, stays
keyed by identity: on another object of the same value it would name the
wrong one.
"""

from __future__ import annotations

import functools
import inspect
import weakref
from numbers import Integral

_BY_VALUE = (str, int, Integral)   # cheapest test first
_MISSING = object()
_TOKEN = "memo.value_token"         # never an attribute name
_TOKENS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class ValueToken:
    """The holder of the by-value entries of every object of one value."""


def value_token(obj) -> ValueToken:
    """The token of ``obj``'s value, ``type(obj).value_key(obj)``, interned
    on first use and kept by ``obj``.  A value key must hold every ring or
    context it depends on itself, not its ``id``, so that a recycled id
    cannot alias two values."""
    entries = vars(obj)
    token = entries.get(_TOKEN)
    if token is None:
        key = obj.value_key()
        token = _TOKENS.get(key)
        if token is None:
            token = _TOKENS[key] = ValueToken()
        entries[_TOKEN] = token
    return token


def array_key(array) -> tuple:
    """The part of a value key that pins one array: shape, dtype and bytes."""
    return array.shape, array.dtype.str, array.tobytes()


def _by_token(arg):
    return value_token(arg) if hasattr(arg, "value_key") else arg


def memo(owner, *, each: bool = False, by_value: bool = False):
    """Decorator memoising a function in the ``__dict__`` of its owner, or
    of its owner's value token."""
    if each and by_value:
        raise TypeError("a batch memo keys its owners by identity")

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
            if by_value:
                key = tuple(map(_by_token, key))
            if each:
                return _each_owner(fn, slot, args, at, key)
            entries = vars(value_token(args[at]) if by_value else args[at])
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
