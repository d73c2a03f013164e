"""Sparse multi-indices over finite site sets, and their sub-index enumeration.

Sites are opaque identifiers: plain integers, or tuples of integers when a
site carries lattice coordinates.  A multi-index stores only its nonzero
orders, so the empty index is the zero index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Union

Site = Union[int, tuple]


def _check_site(site) -> Site:
    if isinstance(site, bool):
        raise TypeError(f"invalid site {site!r}")
    if isinstance(site, int):
        return site
    if isinstance(site, tuple) and site and all(
        isinstance(c, int) and not isinstance(c, bool) for c in site
    ):
        return site
    raise TypeError(f"invalid site {site!r}: expected an int or a tuple of ints")


@dataclass(frozen=True)
class MultiIndex:
    """Assignment of positive derivative orders to finitely many sites."""

    entries: tuple = ()

    @staticmethod
    def of(data: Mapping | Iterable = ()) -> "MultiIndex":
        """Build from a mapping or (site, order) pairs; zero orders are dropped."""
        items = data.items() if isinstance(data, Mapping) else list(data)
        kept = []
        for site, order in items:
            if isinstance(order, bool) or not isinstance(order, int):
                raise TypeError(f"order for site {site!r} must be an integer")
            if order < 0:
                raise ValueError(f"order for site {site!r} is negative")
            if order:
                kept.append((_check_site(site), order))
        kinds = {type(site) for site, _ in kept}
        if len(kinds) > 1:
            raise TypeError("sites must be all integers or all coordinate tuples")
        kept.sort(key=lambda kv: kv[0])
        for (a, _), (b, _) in zip(kept, kept[1:]):
            if a == b:
                raise ValueError(f"site {a!r} appears twice")
        return MultiIndex(tuple(kept))

    def get(self, site) -> int:
        for s, order in self.entries:
            if s == site:
                return order
        return 0

    @property
    def support(self) -> tuple:
        return tuple(site for site, _ in self.entries)

    @property
    def order(self) -> int:
        """Total order: the sum of all per-site orders."""
        return sum(order for _, order in self.entries)

    @property
    def max_order(self) -> int:
        return max((order for _, order in self.entries), default=0)

    def is_zero(self) -> bool:
        return not self.entries

    def to_text(self) -> str:
        """Render as "site:order,site:order" with sites sorted."""
        return ",".join(f"{_site_text(site)}:{order}" for site, order in self.entries)

    def __str__(self) -> str:
        return self.to_text()


ZERO_INDEX = MultiIndex()


def _site_text(site) -> str:
    if isinstance(site, tuple):
        return "(" + ",".join(str(c) for c in site) + ")"
    return str(site)


def from_text(text: str) -> MultiIndex:
    """Parse the textual form produced by :meth:`MultiIndex.to_text`."""
    text = text.strip()
    if not text:
        return ZERO_INDEX
    pairs = []
    for token in _split_top_level(text):
        site_part, sep, order_part = token.rpartition(":")
        if not sep:
            raise ValueError(f"malformed multi-index token {token!r}")
        pairs.append((_parse_site(site_part.strip()), int(order_part)))
    if len({type(site) for site, _ in pairs}) > 1:
        raise ValueError(f"sites in {text!r} are not all integers or all coordinate tuples")
    return MultiIndex.of(pairs)


def _split_top_level(text: str) -> list:
    tokens, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in {text!r}")
        elif ch == "," and depth == 0:
            tokens.append(text[start:i])
            start = i + 1
    if depth:
        raise ValueError(f"unbalanced parentheses in {text!r}")
    tokens.append(text[start:])
    return tokens


def _parse_site(token: str):
    if token.startswith("(") and token.endswith(")"):
        inner = token[1:-1].strip()
        if not inner:
            raise ValueError(f"empty coordinate tuple in {token!r}")
        return tuple(int(c) for c in inner.split(","))
    return int(token)


def sub_multiindices(a: MultiIndex) -> list:
    """All nonzero beta <= a, in canonical counting order.

    The order is a mixed-radix count where the smallest site's order varies
    fastest, which keeps every downstream sum reproducible.
    """
    if a.is_zero():
        raise ValueError("the zero multi-index has no nonzero sub-indices")
    sites = [site for site, _ in a.entries]
    radii = [order + 1 for _, order in a.entries]
    out = []
    for code in range(1, math.prod(radii)):
        digits = []
        rest = code
        for base in radii:
            digits.append(rest % base)
            rest //= base
        out.append(
            MultiIndex(tuple((s, d) for s, d in zip(sites, digits) if d))
        )
    return out
