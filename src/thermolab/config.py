"""Plain-text experiment configs: the package's one ``key = value`` reader.

A config is one ``key = value`` pair per line; '#' starts a comment and
blank lines are skipped. Values are read through typed getters that name
the file, key and line of anything they cannot read (a number that is not
finite included, refused where it is read), and every key the run
does not read is refused by :meth:`Config.finalize`, which each runner calls
before it computes anything.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import ConfigError

# Longest list a lo:hi:step range may expand to.
MAX_RANGE_POINTS = 10**6


class Config:
    """key=value config with typed access and unused-key detection."""

    def __init__(self, entries: dict, source: str = "<config>"):
        self.entries = entries  # key -> (raw value, line number)
        self.source = source
        self.consumed: dict = {}

    @classmethod
    def parse(cls, text: str, source: str = "<config>") -> "Config":
        cfg = cls({}, source)
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise cfg.error("expected 'key = value'", line=lineno)
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not key:
                raise cfg.error("empty key", line=lineno)
            if key in cfg.entries:
                raise cfg.error("duplicate key", key, lineno)
            cfg.entries[key] = (value, lineno)
        return cfg

    @classmethod
    def load(cls, path) -> "Config":
        return cls.parse(Path(path).read_text(), str(path))

    def _parsed(self, key: str, default, required: bool, parse):
        """``parse`` of the key's value, or ``default`` when the key is absent;
        the message of a ValueError from ``parse`` becomes a ConfigError on the key."""
        if key not in self.entries:
            if required:
                raise self.error("missing required key", key)
            return default
        value, _ = self.entries[key]
        self.consumed[key] = value
        try:
            return parse(value)
        except ValueError as exc:
            raise self.error(str(exc), key) from None

    def get_str(self, key: str, default: str | None = None, required: bool = False,
                choices=None) -> str | None:
        value = self._parsed(key, default, required, str)
        if value is not None and choices and value not in choices:
            raise self.error(f"value {value!r} not in {sorted(choices)}", key)
        return value

    def get_float(self, key: str, default=None, required: bool = False,
                  positive: bool = False):
        def parse(value):
            number = _number(value, float, "a number")
            if not math.isfinite(number):
                raise ValueError(f"expected a finite number, got {value!r}")
            if positive and number <= 0.0:
                raise ValueError(f"expected a positive finite number, got {value!r}")
            return number
        return self._parsed(key, default, required, parse)

    def get_int(self, key: str, default=None, required: bool = False):
        return self._parsed(key, default, required, lambda v: _number(v, int, "an integer"))

    def get_floats(self, key: str, default=None, required: bool = False):
        def parse(value):
            numbers = _parse_number_list(value)
            if not all(map(math.isfinite, numbers)):
                raise ValueError(f"expected finite numbers, got {value!r}")
            return numbers
        return self._parsed(key, default, required, parse)

    def get_ints(self, key: str):
        """A required list of integers (see ``_parse_number_list``)."""
        floats = self.get_floats(key, required=True)
        ints = [int(round(x)) for x in floats]
        if any(abs(i - x) > 1e-9 for i, x in zip(ints, floats)):
            raise self.error("expected integers", key)
        return ints

    def error(self, message: str, key: str | None = None, line: int | None = None):
        """ConfigError led by this config's source; ``line`` defaults to the key's."""
        if line is None and key in self.entries:
            line = self.entries[key][1]
        return ConfigError(f"{self.source}: {message}", key=key, line=line)

    def finalize(self):
        unused = sorted(set(self.entries) - set(self.consumed))
        if unused:
            raise self.error("unknown key", unused[0])

    def echo(self) -> dict:
        return dict(sorted(self.consumed.items()))


def _number(text: str, kind, name: str):
    """``kind(text)``; a ValueError reads "cannot parse ``text`` as ``name``"."""
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"cannot parse {text!r} as {name}") from None


def _parse_number_list(text: str) -> list[float]:
    """Scalars, comma lists, and lo:hi[:step] inclusive ranges (see
    ``_decimal_range``)."""
    text = text.strip()
    if "," in text:
        numbers = [float(tok) for tok in text.split(",") if tok.strip()]
        if not numbers:
            raise ValueError(f"no numbers in the list {text!r}")
        return numbers
    if ":" in text:
        parts = [p.strip() for p in text.split(":")]
        if len(parts) == 2:
            parts.append("1")
        if len(parts) != 3:
            raise ValueError(f"bad range {text!r}")
        lo, hi, step = (float(p) for p in parts)
        return _decimal_range(lo, hi, step, max(_decimals(p) for p in parts))
    return [float(text)]


def _decimal_range(lo: float, hi: float, step: float, decimals: int) -> list[float]:
    """lo, lo + step, ... up to hi inclusive, each point rounded to ``decimals``.

    Rounding to the most decimals among lo, hi and step makes
    ``-0.1:0.1:0.01`` pass through 0 exactly and ``0:0.3:0.1`` end at 0.3;
    no point lies past hi. Bad bounds and ranges of over MAX_RANGE_POINTS
    points raise ValueError before any point is built.

    The points x = lo + k*step are rounded as one array, with the bits of
    ``round(x, decimals) + 0.0``, when 10**decimals is an exact double
    (decimals <= 22) and every y = x*10**decimals has |y| < 2**50 and lies
    within 0.25 of its nearest integer n: y is then within 1/16 of the exact
    product, so n is the correctly rounded decimal and no tie can occur, and
    the one correctly rounded division n / 10**decimals is the double that
    ``round`` parses back. A range with any other point takes ``round`` on
    every point.
    """
    text = f"{lo!r}:{hi!r}:{step!r}"
    if not all(math.isfinite(x) for x in (lo, hi, step)):
        raise ValueError(f"range bounds must be finite in {text}")
    if step <= 0 or hi < lo:
        raise ValueError(f"bad range bounds {text}")
    if (hi - lo) / step >= MAX_RANGE_POINTS:
        raise ValueError(f"range {text} has over {MAX_RANGE_POINTS} points")
    count = math.floor((hi - lo) / step + 0.5) + 1
    if round(lo + (count - 1) * step, decimals) > hi:
        count -= 1  # the span was rounded up to a whole step past hi
    x = lo + np.arange(count) * step
    # "+ 0.0" turns a rounded -0.0 into 0.0
    if decimals <= 22:
        scale = 10.0**decimals
        y = x * scale
        n = np.rint(y)
        if np.all((np.abs(y) < 2.0**50) & (np.abs(y - n) < 0.25)):
            return (n / scale + 0.0).tolist()
    return [round(v, decimals) + 0.0 for v in x.tolist()]


def _decimals(token: str) -> int:
    """Decimal places of a number token that float() accepts ("1.25e-1": 3)."""
    mantissa, _, exponent = token.lower().partition("e")
    return max(0, len(mantissa.partition(".")[2]) - int(exponent or 0))
