"""The batch seeding kernel against numpy's SeedSequence, its oracle.

``rng.seed_states`` must give each uint32 row of 1-4 words the words
``SeedSequence(row)`` gives PCG64, and the generators it seeds must draw the
same values; the shadowing cells and fingerprint traces seeded through it must
equal their one-by-one seeding.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hybridflow import fingerprint, rng
from hybridflow.radio_env import SHADOWING_LATTICE_M, PropagationModel

WORD = st.integers(0, 2 ** 32 - 1)


@st.composite
def entropy_rows(draw, widths=(1, 2, 3, 4)):
    """1-5 rows of one length, drawn from widths, of uint32 words, 0 and 2**32 - 1
    drawn often."""
    m = draw(st.sampled_from(widths))
    word = st.one_of(st.sampled_from([0, 2 ** 32 - 1]), WORD)
    return draw(st.lists(st.lists(word, min_size=m, max_size=m), min_size=1, max_size=5))


# rows of the widths the kernel's callers make, both always drawn: a trace's
# (seed, name) and a shadowing cell's (seed, kx, ky)
CALLER_ROWS = st.tuples(entropy_rows((2,)), entropy_rows((3,)))


def reference(row):
    return np.random.SeedSequence([int(w) for w in row])


def words(rows):
    return np.array(rows, dtype=np.uint32)


class TestSeedStatesMatchSeedSequence:
    @given(rows=entropy_rows(), caller_rows=CALLER_ROWS)
    @example(rows=[[0]], caller_rows=([[0, 0]], [[0, 0, 0]]))
    @example(rows=[[2 ** 32 - 1] * 4, [0] * 4],
             caller_rows=([[2 ** 32 - 1] * 2], [[2 ** 32 - 1] * 3]))
    def test_states(self, rows, caller_rows):
        for some in (rows, *caller_rows):
            states = rng.seed_states(words(some))
            assert states.dtype == np.uint64 and states.shape == (len(some), 4)
            for row, state in zip(some, states):
                assert state.tolist() == reference(row).generate_state(4, np.uint64).tolist()

    @given(rows=entropy_rows(), caller_rows=CALLER_ROWS)
    def test_first_normals(self, rows, caller_rows):
        for some in (rows, *caller_rows):
            gens = list(rng.generators(words(some)))
            assert len(gens) == len(some)
            for row, gen in zip(some, gens):
                want = np.random.default_rng(reference(row)).normal(size=8)
                assert gen.normal(size=8).tolist() == want.tolist()

    @given(seeds=st.lists(st.integers(-2 ** 40, 2 ** 40), max_size=5),
           name=st.sampled_from(["fingerprint-car_like", "fingerprint-truck_like", ""]))
    def test_substreams(self, seeds, name):
        gens = list(rng.substreams(seeds, [name] * len(seeds)))
        assert [g.random(4).tolist() for g in gens] == [
            rng.substream(s, name).random(4).tolist() for s in seeds]


def test_seeded_answers_only_pcg64():
    seeded = rng._seeded()(rng.seed_states(words([[7, 8]]))[0])
    assert seeded.generate_state(4, np.uint64).tolist() == \
        reference([7, 8]).generate_state(4, np.uint64).tolist()
    for n_words, dtype in ((4, np.uint32), (2, np.uint64), (8, np.uint64)):
        with pytest.raises(ValueError, match="holds 4 uint64 seed words"):
            seeded.generate_state(n_words, dtype)


class TestShadowingCells:
    POINTS = st.tuples(st.floats(-5e4, 5e4), st.floats(-5e4, 5e4))

    @given(seed=st.integers(0, 2 ** 31 - 1), points=st.lists(POINTS, min_size=1, max_size=12))
    def test_miss_equals_fill(self, seed, points):
        filled, missed = PropagationModel(seed=seed), PropagationModel(seed=seed)
        filled.fill(points)
        assert len(filled._shadow_cache) == len({
            (math.floor(x / SHADOWING_LATTICE_M), math.floor(y / SHADOWING_LATTICE_M))
            for x, y in points})
        cells = dict(filled._shadow_cache)
        for pos in points:
            assert filled.shadowing_db(pos) == missed.shadowing_db(pos)
        assert filled._shadow_cache == cells == missed._shadow_cache

    @given(seed=st.integers(0, 2 ** 31 - 1), pos=POINTS)
    def test_cell_seeded_by_seed_and_offset_indices(self, seed, pos):
        model = PropagationModel(seed=seed, shadowing_sigma_db=4.0)
        kx, ky = (math.floor(c / SHADOWING_LATTICE_M) for c in pos)
        gen = np.random.default_rng(reference([seed, kx + 2 ** 31, ky + 2 ** 31]))
        assert model.shadowing_db(pos) == float(gen.normal(0.0, 4.0))

    def test_fill_keeps_drawn_cells_and_skips_disabled(self):
        model = PropagationModel(seed=3)
        first = model.shadowing_db((10.0, 10.0))
        model.fill([(12.0, 12.0), (60.0, 10.0)])
        assert model.shadowing_db((10.0, 10.0)) == first
        assert len(model._shadow_cache) == 2
        off = PropagationModel(seed=3, shadowing_enabled=False)
        off.fill([(12.0, 12.0)])
        assert off._shadow_cache == {} and off.shadowing_db((12.0, 12.0)) == 0.0


def test_fingerprint_noise_is_each_trace_substream():
    labels = [fingerprint.CAR_LIKE, fingerprint.TRUCK_LIKE, fingerprint.CAR_LIKE]
    seeds = [5, 2 ** 31 - 1, 0]
    clean = fingerprint.synthesize(labels, [20.0] * 3, 0.0, seeds)
    noisy = fingerprint.synthesize(labels, [20.0] * 3, 1.5, seeds)
    for label, seed, a, b in zip(labels, seeds, clean, noisy):
        noise = rng.substream(seed, f"fingerprint-{label}").normal(0.0, 1.5, size=a.rssi_dbm.shape)
        assert (b.rssi_dbm == a.rssi_dbm + noise).all()
