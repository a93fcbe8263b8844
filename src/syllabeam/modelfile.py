"""The model-file format shared by both scorers.

A model file is one JSON object with sorted keys and a trailing newline. Its
"format" and "version" fields name the model kind and its layout revision;
every other field belongs to the model. `load` checks the header and the JSON
type of each field a model names, and rejects any field it does not name,
before the model reads any of them.
"""

from __future__ import annotations

import contextlib
import gc
import json

from .corpus import _object, decode_json, open_input

# the JSON type each schema type stands for; float takes any JSON number
_JSON_NAMES = {
    int: "integer", float: "number", str: "string", bool: "boolean", list: "array", dict: "object"
}


@contextlib.contextmanager
def gc_paused():
    """Disable the cyclic garbage collector around the body or decorated call:
    count tables make many objects and no cycles, so collections only re-walk
    them. The pause is process-wide; the package is single-threaded. Every exit
    path puts back the state it found, so nesting and a caller's pause hold."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def save(path, fmt: str, version: int, fields: dict, arrays: dict[str, list[str]] = {}) -> None:
    """Write `fields` under a `fmt`/`version` header as sorted-key JSON, and
    each `arrays` field as the JSON array of the element texts it names, as
    given: the caller wrote each element as `json.dumps(element)` would. Fields
    are a model's own tables of strings and numbers, so none contains itself:
    the cycle check is skipped, and any value JSON cannot hold still fails."""
    payload = {"format": fmt, "version": version, **fields}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{")
        for i, name in enumerate(sorted(payload.keys() | arrays.keys())):
            fh.write(f"{', ' if i else ''}{json.dumps(name)}: ")
            if name in arrays:
                # element by element: a joined text would copy the whole array
                fh.write("[")
                for j, text in enumerate(arrays[name]):
                    fh.write(f", {text}" if j else text)
                fh.write("]")
            else:
                # one dumps call: json.dump would take the pure-Python encoder
                fh.write(json.dumps(payload[name], sort_keys=True, check_circular=False))
        fh.write("}\n")


def _object_hook():
    """A JSON object hook for one file. An object of one entry whose value is
    an integer, never a bool or a float, is the first dict the hook made of
    that (key, value) pair; any other object is a new dict, once no key of it
    repeats (`corpus._object`)."""
    shared = {}  # (key, integer) -> the one-entry dict of it

    def hook(pairs: list) -> dict:
        if len(pairs) == 1:
            pair = pairs[0]
            if type(pair[1]) is int:  # 1 == True == 1.0, and the three hash alike
                table = shared.get(pair)
                if table is None:
                    table = shared[pair] = dict(pairs)
                return table
        return _object(pairs)

    return hook


def load(path, fmt: str, version: int, schema: dict[str, type]) -> dict:
    """The payload of a `fmt` file of `version`, once no JSON object of it
    repeats a key, every `schema` field is present with its exact JSON type
    and the file has no field beyond these and the header: `int` is a JSON
    integer and never a bool, `float` any JSON number, and str, bool, list
    and dict their own JSON types. Raises ValueError otherwise, as for a path
    that is no regular file (`corpus.open_input`), or RecursionError for JSON
    nested too deeply; a model's `load` names the file under `corpus.naming`.

    Equal objects of one integer entry, such as most count tables, are one
    shared dict within the payload: nothing may change a loaded table."""
    with open_input(path) as fh:
        payload = decode_json(json.JSONDecoder(object_pairs_hook=_object_hook()), fh.read())
    if type(payload) is not dict or payload.get("format") != fmt:
        raise ValueError(f"not a {fmt} file")
    found = payload.get("version")
    if type(found) is not int or found != version:
        raise ValueError(f"unsupported {fmt} version {found!r}")
    for name, kind in schema.items():
        if name not in payload:
            raise ValueError(f"missing field {name!r}")
        value = payload[name]
        if not (type(value) is kind or kind is float and type(value) is int):
            raise ValueError(f"field {name!r} is not a JSON {_JSON_NAMES[kind]}")
    unknown = sorted(payload.keys() - schema.keys() - {"format", "version"})
    if unknown:
        raise ValueError(f"unknown field {unknown[0]!r}")
    return payload


def counts(table, keys: frozenset) -> dict[str, int]:
    """`table` itself, once it is a JSON object mapping members of `keys` to
    non-negative integers. Raises ValueError naming the first bad entry."""
    if type(table) is not dict:
        raise ValueError("a count table is not a JSON object")
    for key, n in table.items():
        if key not in keys:
            raise ValueError(f"count key {key!r} is not an emittable vocabulary entry")
        if type(n) is not int or n < 0:
            raise ValueError(f"count {n!r} for {key!r} is not a non-negative integer")
    return table
