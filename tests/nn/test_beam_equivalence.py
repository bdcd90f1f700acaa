"""Scalar vs batched beam search: bit-identical equivalence + shared edge cases.

The vectorized fast path (:func:`repro.nn.batched_beam_search`) must make the
same decision as the scalar reference (:func:`repro.nn.beam_search`) at every
expansion — token sequences *and* accumulated scores bit-identical — because
serving swaps one for the other and the briefing outputs are compared
exactly.  The step functions here are table-driven so both implementations
see provably identical floats.
"""

import numpy as np
import pytest

from repro import nn
from repro.nn.beam import gather_beam_state

VOCAB = 7
END = VOCAB - 1
START = 0


def table_steps(seed):
    """Matched (scalar, batched) step functions over one random table."""
    rng = np.random.default_rng(seed)
    table = rng.normal(size=(VOCAB, VOCAB))
    table = table - np.log(np.exp(table).sum(axis=1, keepdims=True))

    def scalar_step(token, state):
        return table[token], state

    def batch_step(tokens, state):
        return table[tokens], state

    return scalar_step, batch_step


def assert_identical(scalar_hyps, batched_hyps, context=""):
    assert len(scalar_hyps) == len(batched_hyps), context
    for rank, (ref, fast) in enumerate(zip(scalar_hyps, batched_hyps)):
        assert ref.tokens == fast.tokens, (context, rank, ref.tokens, fast.tokens)
        assert ref.score == fast.score, (context, rank, ref.score, fast.score)
        assert ref.finished == fast.finished, (context, rank)


# ----------------------------------------------------------------------
# Bit-identical equivalence (acceptance criterion: beams {1, 8, 32})
# ----------------------------------------------------------------------
@pytest.mark.parametrize("beam_size", [1, 8, 32])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bit_identical_to_scalar_reference(beam_size, seed):
    scalar_step, batch_step = table_steps(seed)
    for max_depth in (1, 4, 6):
        ref = nn.beam_search(
            scalar_step, None, START, END, beam_size=beam_size, max_depth=max_depth
        )
        fast = nn.batched_beam_search(
            batch_step, None, START, END, beam_size=beam_size, max_depth=max_depth
        )
        assert_identical(ref, fast, f"beam={beam_size} depth={max_depth} seed={seed}")


@pytest.mark.parametrize("length_penalty", [0.3, 0.7, 1.0])
def test_length_penalty_ranking_parity(length_penalty):
    scalar_step, batch_step = table_steps(5)
    ref = nn.beam_search(
        scalar_step, None, START, END, beam_size=8, max_depth=5,
        length_penalty=length_penalty,
    )
    fast = nn.batched_beam_search(
        batch_step, None, START, END, beam_size=8, max_depth=5,
        length_penalty=length_penalty,
    )
    assert_identical(ref, fast, f"lp={length_penalty}")


def test_tie_breaking_determinism():
    """Exactly tied log-probs must resolve identically in both paths."""
    tied = np.zeros(VOCAB)  # every token equally likely, all scores tie

    def scalar_step(token, state):
        return tied, state

    def batch_step(tokens, state):
        return np.tile(tied, (len(tokens), 1)), state

    for beam_size in (1, 3, 8):
        ref = nn.beam_search(scalar_step, None, START, END, beam_size=beam_size, max_depth=3)
        fast = nn.batched_beam_search(
            batch_step, None, START, END, beam_size=beam_size, max_depth=3
        )
        assert_identical(ref, fast, f"tied beam={beam_size}")
        again = nn.batched_beam_search(
            batch_step, None, START, END, beam_size=beam_size, max_depth=3
        )
        assert_identical(fast, again, "batched not deterministic")


def test_multi_sequence_equals_per_sequence_scalar():
    """One fused multi-page search == independent scalar searches per page."""
    rng = np.random.default_rng(11)
    tables = rng.normal(size=(3, VOCAB, VOCAB))
    tables = tables - np.log(np.exp(tables).sum(axis=2, keepdims=True))

    def batch_step(tokens, state):
        pages = state  # (N,) routing array carried as the beam state
        return tables[pages, tokens], pages

    results = nn.batched_beam_search_many(
        batch_step,
        np.arange(3),
        START,
        END,
        num_sequences=3,
        beam_size=8,
        max_depth=4,
    )
    for page in range(3):
        def scalar_step(token, state, page=page):
            return tables[page, token], state

        ref = nn.beam_search(scalar_step, None, START, END, beam_size=8, max_depth=4)
        assert_identical(ref, results[page], f"page={page}")


# ----------------------------------------------------------------------
# Shared edge cases (satellite: both implementations)
# ----------------------------------------------------------------------
def test_all_beams_finish_before_max_depth():
    # Depth 1 fans out to four likely continuations; at depth 2 every one of
    # them ends in END with every END candidate outranking every non-END
    # candidate, so the whole frontier finishes and the search stops early.
    def logits_for(token):
        log_probs = np.full(VOCAB, -50.0)
        if token == START:
            for branch, log_prob in zip((1, 2, 3, 4), (-0.1, -0.2, -0.3, -0.4)):
                log_probs[branch] = log_prob
        else:
            log_probs[END] = -0.5
        return log_probs

    def scalar_step(token, state):
        return logits_for(token), state

    def batch_step(tokens, state):
        return np.stack([logits_for(int(t)) for t in tokens]), state

    ref = nn.beam_search(scalar_step, None, START, END, beam_size=4, max_depth=10)
    fast = nn.batched_beam_search(batch_step, None, START, END, beam_size=4, max_depth=10)
    assert_identical(ref, fast, "early finish")
    for hyps in (ref, fast):
        assert len(hyps) == 4
        assert all(h.finished for h in hyps)
        # Length 3 << max_depth 10: the search stopped early, not by depth.
        assert all(h.tokens[0] == START and h.tokens[-1] == END for h in hyps)
        assert all(len(h.tokens) == 3 for h in hyps)


def test_beam_size_one_equals_greedy_decode():
    scalar_step, batch_step = table_steps(9)
    greedy = nn.greedy_decode(scalar_step, None, START, END, max_depth=6)
    for search, step in ((nn.beam_search, scalar_step), (nn.batched_beam_search, batch_step)):
        top = search(step, None, START, END, beam_size=1, max_depth=6)[0].tokens[1:]
        if top and top[-1] == END:
            top = top[:-1]
        assert top == greedy


def test_batched_validates_inputs():
    _, batch_step = table_steps(0)
    with pytest.raises(ValueError):
        nn.batched_beam_search(batch_step, None, START, END, beam_size=0)
    with pytest.raises(ValueError):
        nn.batched_beam_search_many(
            batch_step, None, START, END, num_sequences=-1, beam_size=2
        )
    assert nn.batched_beam_search_many(
        batch_step, None, START, END, num_sequences=0, beam_size=2
    ) == []

    def bad_step(tokens, state):
        return np.zeros(VOCAB), state  # 1-D: missing the hypothesis axis

    with pytest.raises(ValueError):
        nn.batched_beam_search(bad_step, None, START, END, beam_size=2)


def test_batched_state_threading():
    """Per-hypothesis state rows must follow their surviving hypotheses."""

    def batch_step(tokens, state):
        counts = state  # (N,) steps taken by each hypothesis
        log_probs = np.full((len(tokens), VOCAB), -50.0)
        for row, count in enumerate(counts):
            log_probs[row, END if count >= 2 else 1] = 0.0
        return log_probs, counts + 1

    top = nn.batched_beam_search(
        batch_step, np.zeros(1, dtype=np.int64), START, END, beam_size=3, max_depth=10
    )[0]
    assert top.tokens == [START, 1, 1, END]


# ----------------------------------------------------------------------
# gather_beam_state
# ----------------------------------------------------------------------
def test_gather_beam_state_handles_all_state_shapes():
    indices = np.array([2, 0])
    array = np.arange(12.0).reshape(3, 4)
    assert gather_beam_state(None, indices) is None
    np.testing.assert_array_equal(gather_beam_state(array, indices), array[[2, 0]])
    tensor = nn.Tensor(array)
    gathered = gather_beam_state(tensor, indices)
    assert isinstance(gathered, nn.Tensor)
    np.testing.assert_array_equal(gathered.data, array[[2, 0]])
    nested = (array, [tensor, None], np.array([5, 6, 7]))
    out = gather_beam_state(nested, indices)
    assert isinstance(out, tuple) and isinstance(out[1], list)
    np.testing.assert_array_equal(out[2], [7, 5])
    with pytest.raises(TypeError):
        gather_beam_state({"h": array}, indices)
