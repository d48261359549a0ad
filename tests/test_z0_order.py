"""The order in q that the z0 table's bisection (cli._z0_boundary) rests on,
certified on cells of q with the double kernels.

Rank w is bad at q where P_SN(w) >= P(w).  P and P_SN increase in q (see
race.attacker_success_closed and race.nakamoto_probability), so on a cell
[q1, q2] every q has P_SN(w, q) <= P_SN(w, q2) and P(w, q) >= P(w, q1).
The cell is good for rank w if ln P_SN(w, q2) < ln P(w, q1) - MARGIN, and
bad if ln P_SN(w, q1) >= ln P(w, q2) + MARGIN.  MARGIN is far above the
kernels' error, which test_kernels_at_cell_ends spot-checks at 1e-12, so a
certified cell holds for the exact probabilities and for the kernels the
table bisects on alike.

Halving [_Z0_Q_LO, _Z0_Q_HI] until each cell is certified, or narrower
than MIN_WIDTH, shows that each rank 2..10 turns from good to bad once,
inside one run of uncertain cells, and that the turns rise with the
rank.  Every rank from 11 up to z0_sufficient(top) - 1 is good below
rank 10's turn at top, and z0_sufficient does not decrease in q, so every
rank from 11 up is good there.  So at each q the bad ranks from 2 on are
a prefix, and for the table's k = 2..11, z0(q) >= k exactly where rank
k - 1 is bad.
"""

import functools

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublespend import asymptotics, cli, race
from doublespend.race import HashSplit

from oracles import nakamoto_mp, success_mp

MARGIN = 1e-9
MIN_WIDTH = 1e-8
GUIDE_RANKS = range(2, 11)
GOOD, UNSURE, BAD = -1, 0, 1


def cover(log_sn, log_p, lo, hi):
    """Halve [lo, hi] into cells (q1, q2, sign), in q order, each certified
    GOOD or BAD for every rank at once, or UNSURE once narrower than
    MIN_WIDTH.  log_sn(q) and log_p(q) are the log probabilities at q, of
    one rank or of an array of ranks, and must increase in q."""
    cells, todo = [], [(lo, hi)]
    while todo:
        q1, q2 = todo.pop()
        if np.all(log_sn(q2) < log_p(q1) - MARGIN):
            cells.append((q1, q2, GOOD))
        elif np.all(log_sn(q1) >= log_p(q2) + MARGIN):
            cells.append((q1, q2, BAD))
        elif q2 - q1 < MIN_WIDTH:
            cells.append((q1, q2, UNSURE))
        else:  # the midpoint that cli._z0_boundary takes
            mid = 0.5 * (q1 + q2)
            todo += [(mid, q2), (q1, mid)]
    return cells


def crossing(cells):
    """The cell (a, b) in which a cover turns from good to bad: a is where
    the good cells end, b where the bad ones begin, with only uncertain
    cells between.  Fails unless the cover is good cells, then uncertain
    ones, then bad ones."""
    signs = [sign for _, _, sign in cells]
    assert signs == sorted(signs), signs
    a = max((q2 for _, q2, sign in cells if sign == GOOD), default=cells[0][0])
    b = min((q1 for q1, _, sign in cells if sign == BAD), default=cells[-1][1])
    return a, b


def log_probs(w):
    """ln P_SN and ln P of rank(s) w as functions of q, each q evaluated once."""

    @functools.cache
    def log_sn(q):
        return race._log_nakamoto(HashSplit(q), w)

    @functools.cache
    def log_p(q):
        return race._log_success_closed(HashSplit(q), w)

    return log_sn, log_p


@functools.cache
def certificate():
    """Each guide rank's cover of the table's q range, and the cover of
    [_Z0_Q_LO, top] for ranks 11 .. z0_sufficient(top) - 1, where top is
    the end of rank 10's crossing cell."""
    guides = {
        w: cover(*log_probs(w), cli._Z0_Q_LO, cli._Z0_Q_HI) for w in GUIDE_RANKS
    }
    top = crossing(guides[10])[1]
    later = np.arange(11, asymptotics.z0_sufficient(HashSplit(top)))
    return guides, top, later, cover(*log_probs(later), cli._Z0_Q_LO, top)


def test_guide_ranks_turn_once_in_rank_order():
    guides, _, _, _ = certificate()
    cells = [crossing(guides[w]) for w in GUIDE_RANKS]
    assert all(cli._Z0_Q_LO < a <= b < cli._Z0_Q_HI for a, b in cells), cells
    assert all(b <= a_next for (_, b), (a_next, _) in zip(cells, cells[1:])), cells


def test_later_ranks_are_good_below_rank_10s_turn():
    _, top, later, cells = certificate()
    assert later[-1] >= 150  # z0_sufficient(top) is 154
    assert all(sign == GOOD for _, _, sign in cells)
    assert cells[0][0] == cli._Z0_Q_LO and cells[-1][1] == top


def test_table_cells_hold_the_turns(monkeypatch):
    guides, _, _, _ = certificate()
    real, good = asymptotics._bad_rank, []

    def bad_rank(s, w):
        bad = real(s, w)
        if not bad:
            good.append(s.q)
        return bad

    monkeypatch.setattr(asymptotics, "_bad_rank", bad_rank)
    for k in range(3, 12):
        good.clear()
        b = cli._z0_boundary(k)
        a = max(good)  # the final cell is [a, b]
        assert b - a <= cli._Z0_Q_TOL
        turn_a, turn_b = crossing(guides[k - 1])
        assert a <= turn_a and turn_b <= b, k


def test_cover_rejects_two_sign_changes():
    # a stand-in pair, both increasing in q, whose difference is bad below
    # 0.2, good between 0.2 and 0.3 and bad above
    def log_sn(q):
        return 10.0 * q + (q - 0.2) * (q - 0.3)

    def log_p(q):
        return 10.0 * q

    with pytest.raises(AssertionError):
        crossing(cover(log_sn, log_p, 0.001, 0.4999))
    # one sign change passes, with its turn inside the crossing cell
    a, b = crossing(cover(log_sn, lambda q: log_p(q) + 0.01 * (q - 0.2), 0.25, 0.4999))
    assert a <= 0.31 <= b and b - a < 1e-5


def test_kernels_at_cell_ends():
    # the certificate's cells hold if each kernel is within MARGIN / 2 of the
    # exact log; check about 50 cell ends, the crossing cells' among them
    guides, top, later, cells = certificate()
    points = []
    for w in GUIDE_RANKS:
        a, b = crossing(guides[w])
        ends = [q1 for q1, _, _ in guides[w]]
        points += [(a, w), (b, w)] + [(ends[i * len(ends) // 3], w) for i in range(3)]
    for w in (11, int(later[-1])):
        points += [(q1, w) for q1, _, _ in cells[:: max(1, len(cells) // 3)]] + [(top, w)]
    assert len(points) >= 50
    for q, w in points:
        s = HashSplit(q)
        pairs = ((race._log_nakamoto, nakamoto_mp), (race._log_success_closed, success_mp))
        for kernel, oracle in pairs:
            assert abs(kernel(s, w) - float(mp.log(oracle(q, w)))) <= 1e-12, (kernel, q, w)


@given(
    st.floats(min_value=0.001, max_value=0.4999),
    st.floats(min_value=0.001, max_value=0.4999),
    st.integers(min_value=1, max_value=300),
)
@settings(max_examples=60, deadline=None)
def test_probabilities_rise_in_q(q1, q2, z):
    q1, q2 = sorted((q1, q2))
    if q1 == q2:
        return
    assert success_mp(q1, z) < success_mp(q2, z)
    assert nakamoto_mp(q1, z) < nakamoto_mp(q2, z)


def test_sufficient_rank_does_not_fall_in_q():
    qs = np.concatenate([np.linspace(0.001, 0.4999, 2000), 0.5 - np.logspace(-4, -7, 50)])
    ranks = [asymptotics.z0_sufficient(HashSplit(float(q))) for q in qs]
    assert all(b >= a for a, b in zip(ranks, ranks[1:]))
