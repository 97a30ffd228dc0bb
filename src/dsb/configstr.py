"""Tiny parser for `name:key=value,key=value` config strings."""

from __future__ import annotations

from typing import Dict, Optional, Tuple


def split_spec(text: str) -> Tuple[str, Dict[str, str]]:
    """Split e.g. `dsb:init=32,max=unbounded` into ("dsb", {...})."""
    text = text.strip()
    if not text:
        raise ValueError("empty config string")
    name, _, rest = text.partition(":")
    params: Dict[str, str] = {}
    if rest:
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            if not sep or not key.strip() or not value.strip():
                raise ValueError(f"malformed parameter {item!r} in {text!r}")
            if key.strip() in params:
                raise ValueError(f"duplicate parameter {key.strip()!r} in {text!r}")
            params[key.strip()] = value.strip()
    return name.strip(), params


def take_int(params: Dict[str, str], key: str, spec: str, default: Optional[int] = None) -> int:
    """Pop ``key`` as an integer; ``default`` when it is absent, else it is required."""
    try:
        return int(params.pop(key))
    except KeyError:
        if default is not None:
            return default
        raise ValueError(f"missing required parameter {key!r} in {spec!r}") from None
    except ValueError:
        raise ValueError(f"parameter {key!r} in {spec!r} is not an integer") from None


def parse_number(kind: type, text: str, where: str):
    """``kind(text)`` for ``int`` or ``float``; the error names ``where``, e.g. `path:3: key 'x'`."""
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{where} needs {noun}, got {text!r}") from None


def reject_unknown(params: Dict[str, str], spec: str) -> None:
    if params:
        raise ValueError(f"unknown parameter(s) {sorted(params)} in {spec!r}")
