"""Beam-search decoding for the topic generator.

The paper uses beam search at inference (beam size 200, depth 4 — §IV-A5).
This module implements a model-agnostic beam search over a step function so it
can be reused by every generator variant (single-task, joint baselines,
Joint-WB, distilled students).

Two implementations share the ranking semantics:

* :func:`beam_search` — the scalar reference: one :data:`StepFn` call per
  live hypothesis per depth.  Simple, and the ground truth the fast path is
  tested against.
* :func:`batched_beam_search` / :func:`batched_beam_search_many` — the
  vectorized fast path: every live hypothesis (across every sequence in a
  micro-batch) is one row of a single :data:`BatchStepFn` call, so a
  depth-``D`` decode costs ``D`` step calls instead of ``~D·beam_size``
  per sequence.  Top-k expansion, finished-beam masking and length-penalty
  ranking run in numpy, with tie-breaking chosen to reproduce the scalar
  path decision-for-decision: token sequences and scores are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Tuple

import numpy as np

from .tensor import Tensor

__all__ = [
    "BeamHypothesis",
    "beam_search",
    "batched_beam_search",
    "batched_beam_search_many",
    "gather_beam_state",
    "greedy_decode",
]

# A step function maps (token_id, decoder_state) -> (log_probs, new_state).
StepFn = Callable[[int, object], Tuple[np.ndarray, object]]

#: A batched step function maps ``(token_ids (N,), state)`` to
#: ``(log_probs (N, V), new_state)``.  The state is an array (or an
#: arbitrarily nested tuple/list of arrays/tensors, or ``None``) whose leading
#: dimension indexes the ``N`` live hypotheses, so the search can reorder it
#: with :func:`gather_beam_state` after each expansion.
BatchStepFn = Callable[[np.ndarray, object], Tuple[np.ndarray, object]]


def gather_beam_state(state, indices: np.ndarray):
    """Select rows of a batched decoder state along its leading beam axis.

    Handles ``None`` (stateless step functions), numpy arrays of any dtype
    (including integer routing arrays such as per-beam page indices),
    :class:`~repro.nn.tensor.Tensor` values, and nested tuples/lists thereof.
    """
    if state is None:
        return None
    if isinstance(state, Tensor):
        return Tensor(state.data[indices])
    if isinstance(state, np.ndarray):
        return state[indices]
    if isinstance(state, (tuple, list)):
        return type(state)(gather_beam_state(part, indices) for part in state)
    raise TypeError(
        f"cannot gather beam state of type {type(state).__name__}; use numpy "
        "arrays, Tensors, None, or nested tuples/lists of those"
    )


@dataclass(order=True)
class BeamHypothesis:
    """A partial decode: accumulated log-probability plus the token prefix."""

    score: float
    tokens: List[int] = field(compare=False)
    state: object = field(compare=False, default=None)
    finished: bool = field(compare=False, default=False)

    def normalized_score(self, length_penalty: float = 0.0) -> float:
        """Score divided by ``len^length_penalty`` (0 disables normalisation)."""
        length = max(1, len(self.tokens))
        return self.score / (length ** length_penalty) if length_penalty else self.score


def beam_search(
    step_fn: StepFn,
    initial_state: object,
    start_id: int,
    end_id: int,
    beam_size: int = 8,
    max_depth: int = 4,
    length_penalty: float = 0.0,
) -> List[BeamHypothesis]:
    """Run beam search and return finished hypotheses sorted best-first.

    Parameters
    ----------
    step_fn:
        Maps ``(previous_token, state)`` to ``(log_probs over vocab, state)``.
    initial_state:
        Decoder state before the first step (e.g. encoder summary).
    start_id, end_id:
        Begin/end-of-sequence token ids.
    beam_size:
        Number of hypotheses kept per step.
    max_depth:
        Maximum number of generated tokens (the paper uses 4 — topic phrases
        average three tokens).
    """
    if beam_size < 1:
        raise ValueError("beam_size must be >= 1")
    beams = [BeamHypothesis(score=0.0, tokens=[start_id], state=initial_state)]
    finished: List[BeamHypothesis] = []

    for _ in range(max_depth):
        candidates: List[BeamHypothesis] = []
        for beam in beams:
            if beam.finished:
                candidates.append(beam)
                continue
            log_probs, new_state = step_fn(beam.tokens[-1], beam.state)
            log_probs = np.asarray(log_probs, dtype=np.float64).reshape(-1)
            top = np.argsort(log_probs)[::-1][:beam_size]
            for token_id in top:
                token_id = int(token_id)
                hyp = BeamHypothesis(
                    score=beam.score + float(log_probs[token_id]),
                    tokens=beam.tokens + [token_id],
                    state=new_state,
                    finished=token_id == end_id,
                )
                candidates.append(hyp)
        candidates.sort(key=lambda h: h.normalized_score(length_penalty), reverse=True)
        beams = candidates[:beam_size]
        newly_finished = [b for b in beams if b.finished]
        finished.extend(newly_finished)
        beams = [b for b in beams if not b.finished]
        if not beams:
            break

    finished.extend(beams)  # unfinished hypotheses still count at max depth
    finished.sort(key=lambda h: h.normalized_score(length_penalty), reverse=True)
    return finished


def batched_beam_search_many(
    step_fn: BatchStepFn,
    initial_state: object,
    start_id: int,
    end_id: int,
    num_sequences: int,
    beam_size: int = 8,
    max_depth: int = 4,
    length_penalty: float = 0.0,
) -> List[List[BeamHypothesis]]:
    """Beam-search ``num_sequences`` sequences with fused per-depth steps.

    Every live hypothesis of every sequence is one row of a single
    ``step_fn`` call per depth, so a micro-batch of ``P`` sequences at beam
    ``K`` costs ``max_depth`` step calls instead of ``~max_depth·K·P``.

    ``initial_state`` must carry one leading-axis row per sequence (see
    :func:`gather_beam_state` for the accepted shapes); after each expansion
    the surviving hypotheses' parent rows are gathered out of the step's
    returned state.  Returned hypotheses carry ``state=None`` — callers that
    need per-hypothesis decoder state should use the scalar reference.

    The expansion/ranking semantics reproduce :func:`beam_search` exactly —
    same per-row ``argsort`` top-k, same stable candidate ordering (each
    beam's expansions in beam order), same length-penalty normalisation —
    so given a step function computing the same log-probabilities, token
    sequences *and* scores are bit-identical to the scalar reference.
    """
    if beam_size < 1:
        raise ValueError("beam_size must be >= 1")
    if num_sequences < 0:
        raise ValueError("num_sequences must be >= 0")
    if num_sequences == 0:
        return []

    # Live hypotheses, per sequence: token prefixes, accumulated scores, and
    # each hypothesis' row in the batched state carried into the next step.
    live_tokens: List[List[List[int]]] = [[[start_id]] for _ in range(num_sequences)]
    live_scores: List[List[float]] = [[0.0] for _ in range(num_sequences)]
    finished: List[List[BeamHypothesis]] = [[] for _ in range(num_sequences)]
    state = initial_state

    for _ in range(max_depth):
        alive = [g for g in range(num_sequences) if live_tokens[g]]
        if not alive:
            break
        last = np.asarray(
            [tokens[-1] for g in alive for tokens in live_tokens[g]], dtype=np.int64
        )
        log_probs, new_state = step_fn(last, state)
        # Ranking runs in float64 regardless of the decode dtype.
        log_probs = np.asarray(log_probs, dtype=np.float64)
        if log_probs.ndim != 2 or log_probs.shape[0] != last.shape[0]:
            raise ValueError(
                f"batched step_fn must return (N, V) log-probs for N={last.shape[0]} "
                f"hypotheses, got shape {log_probs.shape}"
            )
        k = min(beam_size, log_probs.shape[1])
        # Per-row top-k, identical to the scalar path's argsort-and-reverse.
        top = np.argsort(log_probs, axis=-1)[:, ::-1][:, :k]
        top_scores = np.take_along_axis(log_probs, top, axis=-1)

        parent_rows: List[int] = []  # surviving beams' rows in new_state
        offset = 0
        for g in alive:
            n_g = len(live_tokens[g])
            rows = slice(offset, offset + n_g)
            # Candidate order matches the scalar path: each live beam's
            # expansions in beam order, best-first within the beam.
            cand_scores = (
                np.asarray(live_scores[g], dtype=np.float64)[:, None] + top_scores[rows]
            ).reshape(-1)
            # All candidates at one depth share a length, so the penalty is a
            # common divisor — computed the same way as normalized_score.
            if length_penalty:
                length = max(1, len(live_tokens[g][0]) + 1)
                norm = cand_scores / (length ** length_penalty)
            else:
                norm = cand_scores
            order = np.argsort(-norm, kind="stable")[:beam_size]
            next_tokens: List[List[int]] = []
            next_scores: List[float] = []
            for position in order:
                position = int(position)
                parent = position // k
                token = int(top[offset + parent, position % k])
                tokens = live_tokens[g][parent] + [token]
                score = float(cand_scores[position])
                if token == end_id:
                    finished[g].append(
                        BeamHypothesis(score=score, tokens=tokens, finished=True)
                    )
                else:
                    next_tokens.append(tokens)
                    next_scores.append(score)
                    parent_rows.append(offset + parent)
            live_tokens[g] = next_tokens
            live_scores[g] = next_scores
            offset += n_g
        if not parent_rows:
            break
        state = gather_beam_state(new_state, np.asarray(parent_rows, dtype=np.intp))

    results: List[List[BeamHypothesis]] = []
    for g in range(num_sequences):
        hypotheses = list(finished[g])
        hypotheses.extend(  # unfinished hypotheses still count at max depth
            BeamHypothesis(score=score, tokens=tokens)
            for tokens, score in zip(live_tokens[g], live_scores[g])
        )
        hypotheses.sort(key=lambda h: h.normalized_score(length_penalty), reverse=True)
        results.append(hypotheses)
    return results


def batched_beam_search(
    step_fn: BatchStepFn,
    initial_state: object,
    start_id: int,
    end_id: int,
    beam_size: int = 8,
    max_depth: int = 4,
    length_penalty: float = 0.0,
) -> List[BeamHypothesis]:
    """Single-sequence convenience wrapper over :func:`batched_beam_search_many`."""
    return batched_beam_search_many(
        step_fn,
        initial_state,
        start_id,
        end_id,
        num_sequences=1,
        beam_size=beam_size,
        max_depth=max_depth,
        length_penalty=length_penalty,
    )[0]


def greedy_decode(
    step_fn: StepFn,
    initial_state: object,
    start_id: int,
    end_id: int,
    max_depth: int = 4,
) -> List[int]:
    """Greedy (beam size 1) decode; returns generated tokens without markers."""
    hyps = beam_search(step_fn, initial_state, start_id, end_id, beam_size=1, max_depth=max_depth)
    tokens = hyps[0].tokens[1:]  # drop start marker
    if tokens and tokens[-1] == end_id:
        tokens = tokens[:-1]
    return tokens
