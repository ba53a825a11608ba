"""Homology of the degree-m_i unramified cyclic covers of the open strata.

Writing f o h = u * y_i^{m_i} near a point of the open stratum E_i°, the
cover is cut out by z^{m_i} = u(P)^{-1}.  Its monodromy around a puncture
of E_i° where E_j crosses is multiplication by a primitive root of unity
raised to m_j, so for a rational (genus 0) stratum the number of
connected components is

    c = gcd(m_i, m_j over the adjacent components),

each component being a connected degree-(m_i/c) cover of the punctured
sphere.  That pins the Betti numbers:

    k >= 1 punctures:  b = (c, c * (1 - (m_i/c) * (2 - k)))
    k  = 0 (compact):  b = (m_i, 0, m_i)

A negative would-be b_1 (a trivial cover forced over a single puncture
with m_i not dividing the adjacent multiplicity) certifies that the data
cannot come from a log resolution and is raised as an error.  Strata of
positive genus, or in ambient dimension >= 3, are not determined by the
dual graph; their Betti data must be supplied on the divisor.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import (
    DomainError,
    InconsistentConfigurationError,
    MissingCoverDataError,
    UnsupportedDimensionError,
)
from .model import SncConfiguration, euler_open_stratum, to_json_dict


class CoverHomology(NamedTuple):
    divisor_id: int
    components: int
    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...] = ()  # per homology degree, elementary divisors
    source: str = "computed"  # "computed" | "supplied"

    def euler(self) -> int:
        return sum((-1) ** n * b for n, b in enumerate(self.betti))

    def torsion_in_degree(self, n: int) -> tuple[int, ...]:
        if n < len(self.torsion):
            return self.torsion[n]
        return ()

    to_json_dict = to_json_dict


def _supplied_cover(cfg: SncConfiguration, i: int) -> CoverHomology | None:
    div = cfg.divisor(i)
    if div.cover_betti is None:
        return None
    betti = div.cover_betti
    cover = CoverHomology(
        divisor_id=i,
        components=betti[0],
        betti=betti,
        torsion=div.cover_torsion or (),
        source="supplied",
    )
    try:
        chi_base = euler_open_stratum(cfg, i)
    except (DomainError, UnsupportedDimensionError):
        return cover  # base chi unknown; accept the supplied data as is
    if cover.euler() != div.mult * chi_base:
        raise InconsistentConfigurationError(
            f"divisor {i}: supplied cover Euler characteristic {cover.euler()} "
            f"differs from m_i * chi(E_i°) = {div.mult * chi_base}"
        )
    return cover


def cover_betti(cfg: SncConfiguration, i: int) -> CoverHomology:
    """Betti data of the cyclic cover of E_i°, computed or supplied.

    The computed cover has c = gcd(m_i, multiplicities at the punctures)
    components: every puncture against the same adjacent component
    contributes the same monodromy class, and with no punctures the cover
    splits completely, c = m_i.
    """
    supplied = _supplied_cover(cfg, i)
    if supplied is not None:
        return supplied
    div = cfg.divisor(i)
    if cfg.ambient_dim == 1:
        # E_i° is a point; the cover is m_i points
        return CoverHomology(divisor_id=i, components=div.mult, betti=(div.mult,))
    if cfg.ambient_dim > 2:
        raise MissingCoverDataError(f"divisor {i}: supply cover_betti for ambient_dim >= 3")
    if (div.genus or 0) > 0:
        raise MissingCoverDataError(
            f"divisor {i} has genus {div.genus}; its cover is not combinatorially "
            "determined, supply cover_betti"
        )
    k = cfg.puncture_count(i)
    m = div.mult
    if k == 0:
        return CoverHomology(divisor_id=i, components=m, betti=(m, 0, m))
    c = math.gcd(m, *cfg.adjacent_multiplicities(i))
    b1 = c * (1 - (m // c) * (2 - k))
    if b1 < 0:
        raise InconsistentConfigurationError(
            f"divisor {i}: a degree-{m} cover of a once-punctured sphere must be "
            f"trivial, but gcd with the adjacent multiplicity is {c}; "
            "the configuration cannot come from a log resolution"
        )
    return CoverHomology(divisor_id=i, components=c, betti=(c, b1))


def covers_for(cfg: SncConfiguration, ids) -> dict[int, CoverHomology]:
    return {i: cover_betti(cfg, i) for i in ids}
