"""Embedded classification-table data.

Rows carry their source-table tag so report diffs are greppable.  The
realizability table drives exotic_lookup: a passing instance is matched on
(p, rank, m, essential-class tag) plus the automizer group's order; rows
whose exponent parameter e exceeds 1 are out of reach for exponent-p
modules and are kept as metadata only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def _w_e6() -> int:
    return 51840


def _w_e7() -> int:
    return 2903040


def _w_e8() -> int:
    return 696729600


@dataclass(frozen=True)
class RealizabilityRow:
    table: str
    family: str             # realizing simple group, verbatim-style
    conditions: str
    rank_desc: str
    e: int
    m_desc: str
    aut_desc: str
    e0: str                 # canonical tag: 'H{0}', 'B{0}', 'H-all', 'H0+B*', 'B0+H*'
    instantiable: bool

    def matches(self, p: int, rank: int, m: int, e0_tag: str,
                group_order: int) -> bool:
        if self.e != 1:
            return False
        return _MATCHERS[self.family](self, p, rank, m, e0_tag, group_order)


def _h_all_tag(p: int) -> str:
    return "H{" + ",".join(str(i) for i in range(p)) + "}"


_MATCHERS = {}


def _matcher(name):
    def deco(fn):
        _MATCHERS[name] = fn
        return fn
    return deco


@_matcher("A_{pn}")
def _m_apn(row, p, rank, m, e0, order):
    n = rank
    return (p <= n < 2 * p and m == p and e0 == "H{0}"
            and order == (p - 1) ** n * math.factorial(n) // 2)


@_matcher("Sp_4(p)")
def _m_sp4(row, p, rank, m, e0, order):
    return (rank == 3 and m == 3 and e0 == "B{0}"
            and order == (p ** 2 - 1) * (p ** 2 - p) // 2)


@_matcher("PSL_p(q), v_p(q-1)=1")
def _m_pslp(row, p, rank, m, e0, order):
    return (p > 3 and rank == p - 2 and m == p - 2
            and e0 == _h_all_tag(p) and order == math.factorial(p))


@_matcher("PSL_n(q), p|q-1, p<n<2p")
def _m_psln(row, p, rank, m, e0, order):
    n = rank + 1
    return (p < n < 2 * p and m == p and e0 == "B{0}"
            and order == math.factorial(n))


@_matcher("POmega^+_{2n}(q)")
def _m_pomega(row, p, rank, m, e0, order):
    n = rank
    return (p <= n < 2 * p and m == p and e0 == "B{0}"
            and order == 2 ** (n - 1) * math.factorial(n))


@_matcher("E_n(q), p=5")
def _m_en5(row, p, rank, m, e0, order):
    return (p == 5 and rank in (6, 7) and m == 5 and e0 == "B{0}"
            and order == {6: _w_e6(), 7: _w_e7()}[rank])


@_matcher("E_n(q), p=7")
def _m_en7(row, p, rank, m, e0, order):
    return (p == 7 and rank in (7, 8) and m == 7 and e0 == "B{0}"
            and order == {7: _w_e7(), 8: _w_e8()}[rank])


@_matcher("E_8(q), p=5, q=+-2 mod 5")
def _m_e85(row, p, rank, m, e0, order):
    return (p == 5 and rank == 4 and m == 4 and e0 == "H0+B*"
            and order == 46080)


@_matcher("Co_1")
def _m_co1(row, p, rank, m, e0, order):
    return (p == 5 and rank == 3 and m == 3 and e0 == "B0+H*"
            and order == 480)


REALIZABILITY_ROWS = [
    RealizabilityRow("type3", "A_{pn}", "p <= n < 2p", "n", 1, "p",
                     "(1/2) C_{p-1} wr S_n", "H{0}", True),
    RealizabilityRow("type3", "Sp_4(p)", "", "3", 1, "3",
                     "GL_2(p)/{+-I}", "B{0}", True),
    RealizabilityRow("type3", "PSL_p(q), v_p(q-1)=1", "p > 3", "p-2", 1,
                     "p-2", "S_p", "H-all", True),
    RealizabilityRow("type3", "PSL_p(q), p^2|q-1", "p > 3", "p-1", 2,
                     "e(p-1)-1", "S_p", "H-all", False),
    RealizabilityRow("type3", "PSL_n(q), p|q-1, p<n<2p", "", "n-1", 1, "p",
                     "S_n", "B{0}", True),
    RealizabilityRow("type3", "POmega^+_{2n}(q)", "p|q-1, p<=n<2p", "n", 1,
                     "p", "C_2^{n-1} : S_n", "B{0}", True),
    RealizabilityRow("type3", "2F4(q)", "p=3, q>=8", "2", 2, "2e",
                     "GL_2(3)", "B0+B*", False),
    RealizabilityRow("type3", "E_n(q), p=5", "n=6,7, p|q-1", "n", 1, "4e+1",
                     "W(E_n)", "B{0}", False),
    RealizabilityRow("type3", "E_n(q), p=7", "n=7,8, p|q-1", "n", 1, "6e+1",
                     "W(E_n)", "B{0}", False),
    RealizabilityRow("type3", "E_8(q), p=5, q=+-2 mod 5", "", "4", 1, "4e",
                     "(C_4 o 2^{1+4}).S_6", "H0+B*", True),
    RealizabilityRow("type3", "Co_1", "p=5", "3", 1, "3", "4 x S_5",
                     "B0+H*", True),
]

# Rows of the almost-simple / non-almost-simple module survey, embedded as
# literal strings for report and corpus listings (desk-instantiable rows
# are exercised by the zoo; the rest are metadata).
MODULE_SURVEY_ROWS = [
    {"table": "survey", "p": "p", "G0": "SL_2(p) or PSL_2(p)",
     "dim": "3 <= n <= p, socle dim i", "Gbar": "GL_2(p) or PGL_2(p) x C_{p-1}",
     "mu_Gbar": "Delta", "mu_G0": "{(u^2, u^{i-1})}", "ER": "ER",
     "instantiable": True},
    {"table": "survey", "p": "p", "G0": "SL_2(p) or PSL_2(p)",
     "dim": "2/(p-1)", "Gbar": "GL_2(p) or PGL_2(p) x C_{p-1}",
     "mu_Gbar": "Delta_-1", "mu_G0": "(1/2)Delta_-1", "ER": "E",
     "instantiable": True},
    {"table": "survey", "p": "p", "G0": "A_p (p >= 5)", "dim": "[1]/p-2/[1]",
     "Gbar": "S_p x (p-1)", "mu_Gbar": "Delta",
     "mu_G0": "(1/2)Delta_0 or (1/2)Delta_-1", "ER": "ER",
     "instantiable": True},
    {"table": "survey", "p": "p", "G0": "A_{p+1} (p >= 5)", "dim": "p",
     "Gbar": "S_{p+1} x (p-1)", "mu_Gbar": "Delta",
     "mu_G0": "(1/2)Delta_0", "ER": "ER", "instantiable": True},
    {"table": "survey", "p": "p", "G0": "A_n (p+2 <= n <= 2p-1)",
     "dim": "n-1", "Gbar": "S_n x (p-1)", "mu_Gbar": "Delta_0",
     "mu_G0": "(1/2)Delta_0", "ER": "R", "instantiable": True},
    {"table": "survey", "p": "p", "G0": "-", "dim": "n (monomial, n >= p)",
     "Gbar": "C_{p-1} wr S_n", "mu_Gbar": "Delta", "mu_G0": "-",
     "ER": "ER", "instantiable": True},
    {"table": "survey", "p": "3", "G0": "-", "dim": "2/2",
     "Gbar": "GL_2(3)", "mu_Gbar": "Delta_1", "mu_G0": "-", "ER": "E",
     "instantiable": True},
    {"table": "survey", "p": "5", "G0": "2.A_6", "dim": "4",
     "Gbar": "4 o 2.S_6", "mu_Gbar": "Delta", "mu_G0": "Delta_1/2",
     "ER": "E", "instantiable": False},
    {"table": "survey", "p": "5", "G0": "-", "dim": "4 (extraspecial)",
     "Gbar": "(C_4 o 2^{1+4}).S_6", "mu_Gbar": "Delta", "mu_G0": "-",
     "ER": "ER", "instantiable": True},
    {"table": "survey", "p": "5", "G0": "PSp_4(3) = W(E_6)'", "dim": "6",
     "Gbar": "W(E_6) x 4", "mu_Gbar": "Delta_0.2", "mu_G0": "(1/2)Delta_0",
     "ER": "R", "instantiable": False},
    {"table": "survey", "p": "5", "G0": "Sp_6(2) = W(E_7)'", "dim": "7",
     "Gbar": "G_0 x 4", "mu_Gbar": "Delta_0", "mu_G0": "(1/2)Delta_0",
     "ER": "R", "instantiable": False},
    {"table": "survey", "p": "7", "G0": "2.A_7", "dim": "4",
     "Gbar": "2.S_7 x 3", "mu_Gbar": "Delta", "mu_G0": "Delta_3/2",
     "ER": "E", "instantiable": False},
    {"table": "survey", "p": "7", "G0": "6.PSL_3(4)", "dim": "6",
     "Gbar": "G_0.2_1", "mu_Gbar": "Delta", "mu_G0": "F_p^{x2} x F_p^x",
     "ER": "E", "instantiable": False},
    {"table": "survey", "p": "7", "G0": "6_1.PSU_4(3)", "dim": "6",
     "Gbar": "G_0.2_2", "mu_Gbar": "Delta", "mu_G0": "F_p^{x2} x F_p^x",
     "ER": "E", "instantiable": False},
    {"table": "survey", "p": "7", "G0": "PSU_3(3)", "dim": "6",
     "Gbar": "G_0.2 x 6", "mu_Gbar": "Delta", "mu_G0": "(1/2)Delta_1",
     "ER": "E", "instantiable": False},
    {"table": "survey", "p": "7", "G0": "PSU_3(3)", "dim": "7",
     "Gbar": "G_0.2 x 6", "mu_Gbar": "Delta", "mu_G0": "(1/2)Delta_0",
     "ER": "E", "instantiable": False},
    {"table": "survey", "p": "7", "G0": "SL_2(8)", "dim": "7",
     "Gbar": "G_0:3 x 6", "mu_Gbar": "Delta", "mu_G0": "(1/3)Delta_1",
     "ER": "E", "instantiable": False},
    {"table": "survey", "p": "7", "G0": "Sp_6(2) = W(E_7)'", "dim": "7",
     "Gbar": "G_0 x 6", "mu_Gbar": "Delta", "mu_G0": "Delta_3",
     "ER": "ER", "instantiable": False},
    {"table": "survey", "p": "7", "G0": "2.Omega_8^+(2) = W(E_8)'",
     "dim": "8", "Gbar": "W(E_8) x 3", "mu_Gbar": "Delta_0.2",
     "mu_G0": "Delta_3", "ER": "R", "instantiable": False},
    {"table": "survey", "p": "7", "G0": "-", "dim": "8 (extraspecial)",
     "Gbar": "(C_3 x 2^{1+6}_+).S_8", "mu_Gbar": "Delta_3", "mu_G0": "-",
     "ER": "-", "instantiable": True},
    {"table": "survey", "p": "11", "G0": "J_1", "dim": "7",
     "Gbar": "G_0 x 10", "mu_Gbar": "Delta", "mu_G0": "Delta_3", "ER": "E",
     "instantiable": False},
    {"table": "survey", "p": "11", "G0": "PSU_5(2)", "dim": "10",
     "Gbar": "G_0.2 x 10", "mu_Gbar": "Delta", "mu_G0": "(1/2)Delta_2",
     "ER": "E", "instantiable": False},
    {"table": "survey", "p": "11", "G0": "2.M_12", "dim": "10 [x2]",
     "Gbar": "G_0.2 x 5", "mu_Gbar": "Delta",
     "mu_G0": "Delta_1/2, Delta_7/2", "ER": "E", "instantiable": False},
    {"table": "survey", "p": "11", "G0": "2.M_22", "dim": "10 [x2]",
     "Gbar": "G_0.2 x 5", "mu_Gbar": "Delta",
     "mu_G0": "Delta_1/2, Delta_7/2", "ER": "E", "instantiable": False},
    {"table": "survey", "p": "13", "G0": "PSU_3(4)", "dim": "12",
     "Gbar": "G_0.4 x 12", "mu_Gbar": "Delta", "mu_G0": "(1/3)Delta_1",
     "ER": "E", "instantiable": False},
]


def lookup_realizable(p: int, rank: int, m: int, e0_tag: str,
                      group_order: int) -> dict:
    """Match a passing instance against the realizability table.

    Returns {'verdict': 'realizable'|'exotic'|'unknown', 'realized_by': ...}.
    """
    hits = [row for row in REALIZABILITY_ROWS
            if row.matches(p, rank, m, e0_tag, group_order)]
    if len(hits) > 1:
        fams = sorted(r.family for r in hits)
        # PSL_4(q) and POmega_6^+(q) are isomorphic; not a real ambiguity
        if fams == sorted(["PSL_n(q), p|q-1, p<n<2p", "POmega^+_{2n}(q)"]) \
                and rank == 3:
            return {"verdict": "realizable",
                    "realized_by": "PSL_4(q) = POmega_6^+(q)"}
        return {"verdict": "unknown", "realized_by": None,
                "note": "ambiguous table match: " + "; ".join(fams)}
    if len(hits) == 1:
        row = hits[0]
        return {"verdict": "realizable", "realized_by": row.family,
                "conditions": row.conditions}
    return {"verdict": "exotic", "realized_by": None}
