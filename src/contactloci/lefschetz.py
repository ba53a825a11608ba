"""Euler characteristic oracle: Lefschetz numbers and the monodromy zeta
function computed directly from the resolution data.

A'Campo's formula gives the Lefschetz number of the m-th monodromy
iterate as

    Lambda(phi^m) = sum over {i : h(E_i) in Sigma, m_i | m} of
                    m_i * chi(E_i°),

and the Denef-Loeser identity equates this with the Euler characteristic
of the m-th contact locus.  The page assembly computes the same number
through cover Betti data, so comparing a page's Euler characteristic with
this one is a genuine two-path cross check: this module never touches the
covers, and it takes the page from its caller rather than building one.
"""

from __future__ import annotations

from typing import NamedTuple

from .model import SncConfiguration, euler_open_stratum, require_valid, to_json_dict
# e1_page is not called here; bench/tracing.py patches lefschetz.e1_page by name
from .spectral import E1Page, e1_page  # noqa: F401


class ZetaFactorization(NamedTuple):
    """Product of (1 - t^m_i)^(-chi(E_i°)) over the divisors over Sigma.

    Stored in reduced form: equal cycle lengths combined, zero exponents
    dropped, sorted by cycle length.
    """

    factors: tuple[tuple[int, int], ...]  # (cycle length, exponent)

    def render(self) -> str:
        num = [f for f in self.factors if f[1] > 0]
        den = [f for f in self.factors if f[1] < 0]

        def block(fs, flip):
            parts = []
            for length, exp in fs:
                e = -exp if flip else exp
                base = f"(1 - t^{length})"
                parts.append(base if e == 1 else f"{base}^{e}")
            return "".join(parts)

        if not num and not den:
            return "1"
        top = block(num, False) or "1"
        if not den:
            return top
        return f"{top} / {block(den, True)}"

    to_json_dict = to_json_dict


def lefschetz_number(cfg: SncConfiguration, m: int) -> int:
    require_valid(cfg)
    total = 0
    for d in cfg.divisors:
        if d.over_sigma and m % d.mult == 0:
            total += d.mult * euler_open_stratum(cfg, d.id)
    return total


def zeta_factorization(cfg: SncConfiguration) -> ZetaFactorization:
    require_valid(cfg)
    exponents: dict[int, int] = {}
    for d in cfg.divisors:
        if d.over_sigma:
            chi = euler_open_stratum(cfg, d.id)
            if chi:
                exponents[d.mult] = exponents.get(d.mult, 0) - chi
    factors = tuple(sorted((length, exp) for length, exp in exponents.items() if exp))
    return ZetaFactorization(factors)


class EulerCrossCheck(NamedTuple):
    m: int
    page_euler: int
    lefschetz: int
    passed: bool  # page_euler == lefschetz

    to_json_dict = to_json_dict


def cross_check_euler(page: E1Page, cfg: SncConfiguration) -> EulerCrossCheck:
    """Compare the Euler characteristic of ``page`` with the Lefschetz
    number of ``cfg`` at the page's m.

    ``page`` is ``e1_page``'s, not ``mclean_relabel``'s: the relabelling
    shifts the total degree by 2dm + d - 1, which is odd for d = 2 and
    flips the sign.  ``cfg`` may be the unseparated configuration (the
    number is a blowup invariant), which keeps the two sides on
    independent inputs as well.
    """
    page_euler = page.euler_characteristic()
    lefschetz = lefschetz_number(cfg, page.m)
    return EulerCrossCheck(page.m, page_euler, lefschetz, page_euler == lefschetz)
