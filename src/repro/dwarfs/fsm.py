"""fsm — the Finite State Machine dwarf (extension).

Another dwarf absent from the paper's evaluated set (§2 aims for full
coverage).  The benchmark is multi-pattern string matching with an
Aho-Corasick automaton — built from scratch here — executed the way
GPU FSM codes parallelise an inherently serial machine:

1. ``fsm_compose``: the text is cut into chunks; each work item runs
   its chunk from *every* possible start state, producing the chunk's
   state-transition function (a vector S -> S) and per-start-state
   match counts.  This is the classic function-composition
   parallelisation of FSMs.
2. The host folds the per-chunk functions left to right (cheap: one
   table lookup per chunk) to find each chunk's true entry state and
   accumulates the match counts.

Validation: a direct serial Aho-Corasick scan of the whole text.
"""

from __future__ import annotations

import collections

import numpy as np

from ..cache import trace as trace_mod
from ..ocl import Context, Event, KernelSource, MemFlags, Program
from ..perfmodel.characterization import KernelProfile
from . import kernels_cl
from .base import (Benchmark, StaticBuffer, StaticLaunch, StaticLaunchModel,
                   ValidationError)

#: Alphabet size (byte text folded to this many symbols).
ALPHABET = 16

#: Bytes each work item processes.
CHUNK_BYTES = 1024

#: Default pattern set (over the folded alphabet, as symbol tuples).
DEFAULT_PATTERNS = (
    (1, 2, 3), (3, 2, 1), (0, 0, 0, 0), (5, 6), (7, 7, 7),
    (1, 2, 3, 4, 5), (9, 8, 9), (15, 0, 15),
)


def build_aho_corasick(patterns=DEFAULT_PATTERNS, alphabet: int = ALPHABET):
    """Aho-Corasick automaton as dense tables.

    Returns ``(transitions, matches)``: ``transitions`` is an (S,
    alphabet) int32 goto-with-failure table; ``matches[s]`` counts the
    patterns ending at state ``s`` (including via suffix links).
    """
    # trie construction
    children: list[dict[int, int]] = [{}]
    outputs: list[int] = [0]
    for pattern in patterns:
        if not pattern:
            raise ValueError("empty pattern")
        state = 0
        for symbol in pattern:
            if not 0 <= symbol < alphabet:
                raise ValueError(f"symbol {symbol} outside alphabet {alphabet}")
            if symbol not in children[state]:
                children.append({})
                outputs.append(0)
                children[state][symbol] = len(children) - 1
            state = children[state][symbol]
        outputs[state] += 1

    n_states = len(children)
    fail = [0] * n_states
    queue = collections.deque()
    for symbol, nxt in children[0].items():
        queue.append(nxt)
    while queue:
        state = queue.popleft()
        for symbol, nxt in children[state].items():
            queue.append(nxt)
            f = fail[state]
            while f and symbol not in children[f]:
                f = fail[f]
            fail[nxt] = children[f].get(symbol, 0)
            if fail[nxt] == nxt:
                fail[nxt] = 0
            outputs[nxt] += outputs[fail[nxt]]

    transitions = np.zeros((n_states, alphabet), dtype=np.int32)
    for state in range(n_states):
        for symbol in range(alphabet):
            s = state
            while s and symbol not in children[s]:
                s = fail[s]
            transitions[state, symbol] = children[s].get(symbol, 0)
    return transitions, np.asarray(outputs, dtype=np.int64)


def _fsm_compose_kernel(nd, text, transitions, matches, chunk_maps,
                        chunk_counts, chunk_bytes):
    """Per-chunk state function + match counts from every start state.

    All chunks and all start states advance together, vectorised; the
    byte loop is the FSM's inherent serial chain.
    """
    chunk_bytes = int(chunk_bytes)
    n = len(text)
    n_chunks = (n + chunk_bytes - 1) // chunk_bytes
    n_states = transitions.shape[0]
    # states[c, s]: current state of chunk c when started in state s
    states = np.tile(np.arange(n_states, dtype=np.int32), (n_chunks, 1))
    counts = np.zeros((n_chunks, n_states), dtype=np.int64)
    for offset in range(chunk_bytes):
        pos = np.arange(n_chunks) * chunk_bytes + offset
        live = pos < n
        if not live.any():
            break
        symbols = text[pos[live]]
        states[live] = transitions[states[live], symbols[:, None]]
        counts[live] += matches[states[live]]
    chunk_maps[...] = states
    chunk_counts[...] = counts


class FSM(Benchmark):
    """Finite State Machine dwarf: Aho-Corasick multi-pattern matching."""

    name = "fsm"
    dwarf = "Finite State Machine"
    presets = {"tiny": 16384, "small": 196608, "medium": 6291456,
               "large": 33554432}
    args_template = "{phi} 1024"

    def __init__(self, n_bytes: int, chunk_bytes: int = CHUNK_BYTES,
                 patterns=DEFAULT_PATTERNS, seed: int = 47):
        super().__init__()
        if n_bytes <= 0 or chunk_bytes <= 0:
            raise ValueError("text and chunk sizes must be positive")
        self.n_bytes = int(n_bytes)
        self.chunk_bytes = int(chunk_bytes)
        self.n_chunks = (self.n_bytes + self.chunk_bytes - 1) // self.chunk_bytes
        self.patterns = tuple(tuple(p) for p in patterns)
        self.seed = seed
        self.transitions, self.match_table = build_aho_corasick(
            self.patterns, ALPHABET)
        self.n_states = self.transitions.shape[0]
        self.total_matches: int | None = None

    # ------------------------------------------------------------------
    @classmethod
    def from_scale(cls, phi, **overrides) -> "FSM":
        return cls(n_bytes=int(phi), **overrides)

    @classmethod
    def from_args(cls, argv: list[str], **overrides) -> "FSM":
        """Parse ``N [chunk_bytes]``."""
        if not 1 <= len(argv) <= 2:
            raise ValueError(f"fsm: expected 'N [chunk]', got {argv!r}")
        kwargs = dict(n_bytes=int(argv[0]))
        if len(argv) == 2:
            kwargs["chunk_bytes"] = int(argv[1])
        return cls(**kwargs, **overrides)

    # ------------------------------------------------------------------
    def static_launches(self) -> StaticLaunchModel:
        nc, ns = self.n_chunks, self.n_states
        return StaticLaunchModel(
            source=kernels_cl.FSM_CL,
            macros={"N_STATES": ns, "ALPHABET": ALPHABET,
                    "TEXT_BYTES": self.n_bytes},
            buffers={
                "text": StaticBuffer("text", self.n_bytes),
                "transitions": StaticBuffer(
                    "transitions", ns * ALPHABET * 4),
                "matches": StaticBuffer("matches", ns * 8),
                "chunk_maps": StaticBuffer("chunk_maps", nc * ns * 4),
                "chunk_counts": StaticBuffer("chunk_counts", nc * ns * 8),
            },
            launches=(
                StaticLaunch(
                    "fsm_compose", (nc,),
                    scalars={"chunk_bytes": self.chunk_bytes},
                    buffers={"text": ("text", 0),
                             "transitions": ("transitions", 0),
                             "matches": ("matches", 0),
                             "chunk_maps": ("chunk_maps", 0),
                             "chunk_counts": ("chunk_counts", 0)},
                ),
            ),
        )

    def host_setup(self, context: Context) -> None:
        self.context = context
        rng = np.random.default_rng(self.seed)
        self.text = rng.integers(0, ALPHABET, self.n_bytes, dtype=np.uint8)

        self.buf_text = context.buffer_like(self.text, MemFlags.READ_ONLY)
        self.buf_transitions = context.buffer_like(self.transitions,
                                                   MemFlags.READ_ONLY)
        self.buf_matches = context.buffer_like(self.match_table,
                                               MemFlags.READ_ONLY)
        self.buf_maps = context.buffer_like(
            np.zeros((self.n_chunks, self.n_states), np.int32))
        self.buf_counts = context.buffer_like(
            np.zeros((self.n_chunks, self.n_states), np.int64))
        program = Program(context, [
            KernelSource("fsm_compose", _fsm_compose_kernel,
                         self._profile_compose, cl_source=kernels_cl.FSM_CL),
        ]).build()
        self.kernel = program.create_kernel("fsm_compose").set_args(
            self.buf_text, self.buf_transitions, self.buf_matches,
            self.buf_maps, self.buf_counts, self.chunk_bytes)
        self._setup_done = True

    def transfer_inputs(self, queue) -> list[Event]:
        self._require_setup()
        return [
            queue.enqueue_write_buffer(self.buf_text, self.text),
            queue.enqueue_write_buffer(self.buf_transitions, self.transitions),
            queue.enqueue_write_buffer(self.buf_matches, self.match_table),
        ]

    def run_iteration(self, queue) -> list[Event]:
        self._require_setup()
        return [queue.enqueue_nd_range_kernel(self.kernel, (self.n_chunks,))]

    def collect_results(self, queue) -> list[Event]:
        self._require_setup()
        maps = np.empty((self.n_chunks, self.n_states), np.int32)
        counts = np.empty((self.n_chunks, self.n_states), np.int64)
        events = [
            queue.enqueue_read_buffer(self.buf_maps, maps),
            queue.enqueue_read_buffer(self.buf_counts, counts),
        ]
        # host fold: resolve each chunk's true entry state
        state = 0
        total = 0
        for chunk in range(self.n_chunks):
            total += int(counts[chunk, state])
            state = int(maps[chunk, state])
        self.total_matches = total
        self._final_state = state
        return events

    # ------------------------------------------------------------------
    def _reference_serial(self) -> int:
        """Direct serial Aho-Corasick scan of the whole text."""
        state, total = 0, 0
        transitions, matches = self.transitions, self.match_table
        for symbol in self.text.tolist():
            state = int(transitions[state, symbol])
            total += int(matches[state])
        return total

    def validate(self) -> None:
        if self.total_matches is None:
            raise ValidationError("fsm: results were never collected")
        expected = self._reference_serial()
        if self.total_matches != expected:
            raise ValidationError(
                f"fsm: counted {self.total_matches} matches, serial scan "
                f"found {expected}")

    # ------------------------------------------------------------------
    def _profile_compose(self, nd, *args) -> KernelProfile:
        # every chunk advances |S| machine replicas over its bytes
        total_steps = float(self.n_bytes) * self.n_states
        return KernelProfile(
            name="fsm_compose",
            flops=0.0,
            int_ops=4.0 * total_steps,
            bytes_read=float(self.n_bytes) + total_steps * 4.0,
            bytes_written=self.n_chunks * self.n_states * 12.0,
            working_set_bytes=float(self.footprint_bytes()),
            work_items=self.n_chunks,
            seq_fraction=0.5,
            strided_fraction=0.0,
            random_fraction=0.5,          # transition-table lookups
            branch_fraction=0.1,
            serial_ops=0.0,
            chain_ops=4.0 * self.chunk_bytes,  # the per-chunk byte chain
        )

    def profiles(self) -> list[KernelProfile]:
        return [self._profile_compose(None)]

    def trace_spec(self) -> trace_mod.TraceSpec:
        return trace_mod.TraceSpec.single(
            trace_mod.seq(self.n_bytes, element_bytes=1, passes=1,
                          budget=("floordiv", 2)),
            trace_mod.random_component(self.transitions.nbytes, seed_offset=5,
                                       offset=self.n_bytes,
                                       budget=("floordiv", 2)),
        )
