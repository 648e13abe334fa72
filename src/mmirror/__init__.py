"""Exact-arithmetic mirror identities for minuscule flag varieties.

json_text, the report writer, sits here and not in cli.py, whose tokens
set the peak memory of an import that compiles the package."""

import json
from json.encoder import encode_basestring_ascii as _str

__version__ = "0.1.0"


def json_text(v, pad="\n"):
    """json.dumps(v, indent=2, sort_keys=True, allow_nan=False) without
    the pure-Python encoder that indent selects; dict keys are str.  A
    float that is not finite is refused with ValueError, so no report
    carries a bare Infinity or NaN."""
    spell = _SPELL.get(type(v))
    if spell:
        return spell(v)
    inner = pad + "  "
    if isinstance(v, dict) and v:
        items, o, c = [_str(k) + ": " + json_text(v[k], inner)
                       for k in sorted(v)], "{", "}"
    elif isinstance(v, (list, tuple)) and v:
        items, o, c = [json_text(x, inner) for x in v], "[", "]"
    else:
        return _strict(v)             # a float, None, or an empty one
    return o + inner + ("," + inner).join(items) + pad + c


# str, int and bool as json spells them; the rest through one encoder
# that refuses a float that is not finite
_SPELL = {str: _str, int: int.__repr__, bool: ("false", "true").__getitem__}
_strict = json.JSONEncoder(allow_nan=False).encode
