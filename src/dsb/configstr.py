"""The one grammar for `name:key=value,key=value` config strings.

A module that owns spec kinds declares them in one table,
``{name: (cls, {key: (field, read, default)})}``: spec ``name`` builds
``cls(**fields)``, spec ``key`` sets ``field`` to ``read(value)``, and an
absent key takes ``default``, which is ``REQUIRED``, a value, or
``SameAs(field)``, the value of an earlier field.  :func:`parse_spec` and
:func:`format_spec` are the only reader and writer.  Every error names the
spec; the writer gives every key in table order as ``str(value)``, which
round-trips floats exactly, and a ``None`` field as ``unbounded``.
Line files (profiles, prompts, grids, traces) are read by :func:`read_lines`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Dict, Iterator, NamedTuple, Optional, Tuple

REQUIRED = object()
UNBOUNDED = "unbounded"


class SameAs(NamedTuple):
    field: str


Kinds = Dict[str, Tuple[type, Dict[str, Tuple[str, Callable[[str], Any], Any]]]]


def int_or_unbounded(text: str) -> Optional[int]:
    return None if text == UNBOUNDED else int(text)


# What a value must be for each reader that can reject it.
_NOUN = {int: "an integer", float: "a number", int_or_unbounded: f"an integer or {UNBOUNDED!r}"}


def _split(spec: str) -> Tuple[str, Dict[str, str]]:
    """Split e.g. `dsb:init=32,max=unbounded` into ("dsb", {"init": "32", "max": "unbounded"})."""
    if not spec.strip():
        raise ValueError(f"empty config string {spec!r}")
    name, _, rest = (part.strip() for part in spec.partition(":"))
    params: Dict[str, str] = {}
    for item in rest.split(",") if rest else ():
        key, sep, value = (part.strip() for part in item.partition("="))
        if not sep or not key or not value:
            raise ValueError(f"malformed parameter {item!r} in {spec!r}")
        if key in params:
            raise ValueError(f"duplicate parameter {key!r} in {spec!r}")
        params[key] = value
    return name, params


def parse_spec(spec: str, kinds: Kinds, what: str) -> Any:
    """Build the ``kinds`` entry that ``spec`` names; ``what`` names the kind in errors."""
    name, params = _split(spec)
    if name not in kinds:
        raise ValueError(f"unknown {what} {name!r} in {spec!r}")
    cls, keys = kinds[name]
    unknown = sorted(set(params) - set(keys))
    if unknown:
        raise ValueError(f"unknown parameter(s) {unknown} in {spec!r}")
    fields: Dict[str, Any] = {}
    for key, (field, read, default) in keys.items():
        if key in params:
            try:
                fields[field] = read(params[key])
            except ValueError:
                raise ValueError(f"parameter {key!r} in {spec!r} is not {_NOUN[read]}") from None
        elif default is REQUIRED:
            raise ValueError(f"missing required parameter {key!r} in {spec!r}")
        else:
            fields[field] = fields[default.field] if isinstance(default, SameAs) else default
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ValueError(f"{exc} in {spec!r}") from None


def format_spec(obj: Any, kinds: Kinds) -> str:
    """The canonical spec of ``obj``, an instance of one of the ``kinds`` classes."""
    name, keys = next((name, keys) for name, (cls, keys) in kinds.items() if type(obj) is cls)
    values = (getattr(obj, field) for field, _, _ in keys.values())
    params = ",".join(f"{key}={UNBOUNDED if v is None else v!s}" for key, v in zip(keys, values))
    return f"{name}:{params}" if params else name


def parse_number(kind: type, text: str, where: str):
    """``kind(text)`` for ``int`` or ``float``; the error names ``where``, e.g. `path:3: key 'x'`."""
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{where} needs {_NOUN[kind]}, got {text!r}") from None


def read_lines(path: str) -> Iterator[Tuple[int, str]]:
    """Numbered (from 1), stripped lines of a UTF-8 text file; a byte that is
    not UTF-8 raises ``ValueError`` naming ``path:line``."""
    for lineno, raw in enumerate(Path(path).read_bytes().splitlines(), start=1):
        try:
            yield lineno, raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
