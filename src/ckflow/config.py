"""Flat dotted-key run configuration files.

A run file is plain text, one `key = value` per line, `#` comments, blank
lines ignored.  Values are numbers, bare strings, or `[a, b, c]` lists of
numbers.  Every key is validated against the registry below (kind, finite
numbers, range) before any computation starts; unknown or duplicate keys
are rejected so committed run files stay reproducible.
"""

import math

from .errors import ConfigError

# ranges: (test on the parsed value, what the message says it must be)
_POSITIVE = (lambda v: v > 0.0, "> 0")
_NON_NEGATIVE = (lambda v: v >= 0, ">= 0")

# key -> (kind, default, choices-or-None, range-or-None); kind in
# {choice, float, int, vec3, auto_float}.  Numbers must also be finite.
REGISTRY = {
    "geometry": ("choice", "euclidean",
                 ("euclidean", "paper_example", "poincare_ball"), None),
    "poincare_ball.radius": ("float", 1.0, None,
                             (lambda v: v > 0.0 and v * v > 0.0,
                              "> 0 with a square that does not underflow")),
    "rotation.axis": ("vec3", (1.0, 0.0, 0.0), None,
                      (lambda v: sum(x * x for x in v) > 0.0,
                       "a nonzero vector whose squared length does not "
                       "underflow")),
    "rotation.omega": ("float", 0.0, None, None),
    "schedule.t0": ("auto_float", "auto", None, _POSITIVE),
    "schedule.margin": ("float", 0.1, None,
                        (lambda v: 0.0 < v < 1.0, "in (0, 1)")),
    "seed.kind": ("choice", "sphere", ("sphere", "ellipsoid", "twisted"),
                  None),
    "seed.radius": ("float", 1.0, None, _POSITIVE),
    "seed.semiaxes": ("vec3", (1.3, 1.0, 1.0), None,
                      (lambda v: min(v) > 0.0, "three positive numbers")),
    "seed.twist": ("float", 0.0, None, None),
    "seed.level": ("int", 4, None, _NON_NEGATIVE),
    "flow.backend": ("choice", "lagrangian", ("lagrangian", "leaf_graph"),
                     None),
    "flow.cfl": ("float", 0.25, None,
                 (lambda v: 0.0 < v <= 0.5, "in (0, 0.5]")),
    "flow.t_end": ("float", 20.0, None, _POSITIVE),
    "flow.speed_tol": ("float", 1e-2, None, None),
    "flow.leaf_tol": ("float", 1e-2, None, None),
    "flow.smooth_every": ("int", 10, None, None),
    "flow.max_steps": ("int", 500000, None, None),
    "output.frame_every": ("int", 0, None, None),
    "sampling.seed": ("int", 0, None, _NON_NEGATIVE),
}


def _parse_scalar(text):
    low = text.lower()
    try:
        if "." in low or "e" in low or "inf" in low or "nan" in low:
            return float(text)
        return int(text)
    except ValueError:
        return text  # bare string


def _parse_value(text, where):
    text = text.strip()
    if not text:
        raise ConfigError(f"{where}: empty value")
    if text.startswith("["):
        if not text.endswith("]"):
            raise ConfigError(f"{where}: unterminated list {text!r}")
        items = [s.strip() for s in text[1:-1].split(",") if s.strip()]
        vals = []
        for s in items:
            v = _parse_scalar(s)
            if isinstance(v, str):
                raise ConfigError(f"{where}: non-numeric list entry {s!r}")
            vals.append(float(v))
        return vals
    return _parse_scalar(text)


def _check(key, value, where):
    value = _check_kind(key, value, where)
    if isinstance(value, str):  # a choice, or schedule.t0 = auto
        return value
    numbers = value if isinstance(value, tuple) else (value,)
    if not all(math.isfinite(v) for v in numbers):
        raise ConfigError(f"{where}: {key} must be finite, got {value!r}")
    bound = REGISTRY[key][3]
    if bound is not None and not bound[0](value):
        raise ConfigError(f"{where}: {key} must be {bound[1]}, got {value!r}")
    return value


def _check_kind(key, value, where):
    kind, _, choices, _ = REGISTRY[key]
    if kind == "choice":
        if not isinstance(value, str) or value not in choices:
            raise ConfigError(
                f"{where}: {key} must be one of {', '.join(choices)}; "
                f"got {value!r}"
            )
        return value
    if kind == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where}: {key} must be a number, got {value!r}")
        return float(value)
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{where}: {key} must be an integer, got {value!r}")
        return int(value)
    if kind == "vec3":
        if not isinstance(value, list) or len(value) != 3:
            raise ConfigError(
                f"{where}: {key} must be a 3-component list, got {value!r}"
            )
        return tuple(float(v) for v in value)
    if kind == "auto_float":
        if value == "auto":
            return "auto"
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(
                f"{where}: {key} must be 'auto' or a number, got {value!r}"
            )
        return float(value)
    raise AssertionError(kind)


def parse_config(text, name="<config>"):
    """Parse config text into a fully defaulted, validated key->value dict."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{name}:{lineno}"
        if "=" not in line:
            raise ConfigError(f"{where}: expected 'key = value', got {raw!r}")
        key, _, rhs = line.partition("=")
        key = key.strip()
        if key not in REGISTRY:
            raise ConfigError(f"{where}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        values[key] = _check(key, _parse_value(rhs, where), where)
    out = {k: spec[1] for k, spec in REGISTRY.items()}
    out.update(values)
    return out


def load_config(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    return parse_config(text, name=str(path))
