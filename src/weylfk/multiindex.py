"""Sparse multi-indices over coordinate positions, and their sub-index enumeration.

A multi-index assigns derivative orders to the coordinates of R^n, one per
site, each addressed by its position 0..n-1 in the site list.  It stores only
its nonzero orders, so the empty index is the zero index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping


def _check_site(site) -> int:
    if isinstance(site, bool) or not isinstance(site, int):
        raise TypeError(f"invalid site {site!r}: expected a position, an int >= 0")
    if site < 0:
        raise ValueError(f"invalid site {site!r}: a position is >= 0")
    return site


@dataclass(frozen=True)
class MultiIndex:
    """Assignment of positive derivative orders to finitely many site positions."""

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
        return ",".join(f"{site}:{order}" for site, order in self.entries)

    def __str__(self) -> str:
        return self.to_text()


ZERO_INDEX = MultiIndex()


def from_text(text: str) -> MultiIndex:
    """Parse the textual form produced by :meth:`MultiIndex.to_text`."""
    text = text.strip()
    if not text:
        return ZERO_INDEX
    pairs = []
    for token in text.split(","):
        site_part, sep, order_part = token.rpartition(":")
        if not sep:
            raise ValueError(f"malformed multi-index token {token!r}")
        pairs.append((int(site_part), int(order_part)))
    return MultiIndex.of(pairs)


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
