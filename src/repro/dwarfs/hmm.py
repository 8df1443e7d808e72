"""hmm — the Graphical Models dwarf.

One Baum-Welch re-estimation step for a discrete hidden Markov model
with N states and S output symbols (Table 2 parameters ``N,S``), using
Rabiner-scaled forward-backward recursions.  Kernel structure follows
the OpenCL benchmark: the forward and backward passes launch one
kernel per timestep (the recurrences are inherently sequential in t,
parallel across states), and three further kernels re-estimate pi, A
and B.

As in the paper, "validation of the correctness of results has not
occurred apart from over the tiny problem size, as such, it is the
only size examined in the evaluation" (§4.4.4) — our validation
(float64 reference implementation, norm comparison) runs at any size
but the figure harness measures tiny only.
"""

from __future__ import annotations

import numpy as np

from ..cache import trace as trace_mod
from ..ocl import Context, Event, KernelSource, MemFlags, Program
from ..perfmodel.characterization import KernelProfile
from . import kernels_cl
from .base import (Benchmark, StaticBuffer, StaticLaunch, StaticLaunchModel,
                   ValidationError, assert_close)

#: Observation-sequence length (fixed across problem sizes; the Table 2
#: parameters vary states and symbols).
T_OBSERVATIONS = 64


def _forward_kernel(nd, a, b, pi, obs, alpha, scale, t):
    """One scaled forward step: alpha[t] from alpha[t-1]."""
    t = int(t)
    if t == 0:
        alpha[0] = pi * b[:, obs[0]]
    else:
        alpha[t] = (alpha[t - 1] @ a) * b[:, obs[t]]
    total = alpha[t].sum()
    scale[t] = 1.0 / total
    alpha[t] *= scale[t]


def _backward_kernel(nd, a, b, obs, beta, scale, t):
    """One scaled backward step: beta[t] from beta[t+1]."""
    t = int(t)
    last = beta.shape[0] - 1
    if t == last:
        beta[last] = scale[last]
    else:
        beta[t] = scale[t] * (a @ (b[:, obs[t + 1]] * beta[t + 1]))


def _estimate_pi_kernel(nd, alpha, beta, scale, pi_out):
    """pi := gamma_0."""
    gamma0 = alpha[0] * beta[0] / scale[0]
    pi_out[...] = gamma0 / gamma0.sum()


def _estimate_a_kernel(nd, a, b, obs, alpha, beta, a_out):
    """A := expected transitions / expected visits."""
    t_len = alpha.shape[0]
    # xi summed over t: alpha[t] outer (A * B[:, o_{t+1}] * beta[t+1])
    numer = np.zeros_like(a)
    denom = np.zeros(a.shape[0], dtype=a.dtype)
    for t in range(t_len - 1):
        weighted = b[:, obs[t + 1]] * beta[t + 1]
        numer += a * np.outer(alpha[t], weighted)
        gamma_t = alpha[t] * beta[t]
        denom += gamma_t
    # Rabiner scaling: gamma_t here is alpha_hat*beta_hat*P(O)/c_t-ish;
    # both numerator and denominator carry the same factors, so the
    # ratio is the ML estimate after row normalisation.
    a_out[...] = numer / np.maximum(denom[:, None], 1e-30)
    a_out /= np.maximum(a_out.sum(axis=1, keepdims=True), 1e-30)


def _estimate_b_kernel(nd, obs, alpha, beta, scale, b_out):
    """B := expected emissions / expected visits."""
    t_len = alpha.shape[0]
    gamma = alpha * beta / scale[:, None]
    denom = gamma.sum(axis=0)
    b_out[...] = 0.0
    for t in range(t_len):
        b_out[:, obs[t]] += gamma[t]
    b_out /= np.maximum(denom[:, None], 1e-30)


class HMM(Benchmark):
    """Graphical Models dwarf: Baum-Welch re-estimation."""

    name = "hmm"
    dwarf = "Graphical Models"
    presets = {
        "tiny": (8, 1),
        "small": (900, 1),
        "medium": (1012, 1024),
        "large": (2048, 2048),
    }
    args_template = "-n {phi1} -s {phi2} -v s"

    def __init__(self, n_states: int, n_symbols: int = 1,
                 t_observations: int = T_OBSERVATIONS, seed: int = 29):
        super().__init__()
        if n_states < 2:
            raise ValueError(f"need at least 2 states, got {n_states}")
        if n_symbols < 1:
            raise ValueError(f"need at least 1 symbol, got {n_symbols}")
        self.n_states = int(n_states)
        self.n_symbols = int(n_symbols)
        self.t_obs = int(t_observations)
        self.seed = seed
        self.a_out: np.ndarray | None = None
        self.b_out: np.ndarray | None = None
        self.pi_out: np.ndarray | None = None

    # ------------------------------------------------------------------
    @classmethod
    def from_scale(cls, phi, **overrides) -> "HMM":
        n, s = phi
        return cls(n_states=n, n_symbols=s, **overrides)

    @classmethod
    def from_args(cls, argv: list[str], **overrides) -> "HMM":
        """Parse ``-n N -s S -v s`` (Table 3)."""
        n, s = None, 1
        i = 0
        while i < len(argv):
            if argv[i] == "-n":
                n = int(argv[i + 1]); i += 2
            elif argv[i] == "-s":
                s = int(argv[i + 1]); i += 2
            elif argv[i] == "-v":
                i += 2  # variant flag; only 's' (standard) is implemented
            else:
                raise ValueError(f"hmm: unknown argument {argv[i]!r}")
        if n is None:
            raise ValueError("hmm: -n <states> is required")
        return cls(n_states=n, n_symbols=s, **overrides)

    # ------------------------------------------------------------------
    def static_launches(self) -> StaticLaunchModel:
        n, s, t_obs = self.n_states, self.n_symbols, self.t_obs
        launches: list[StaticLaunch] = []
        for t in range(t_obs):
            launches.append(StaticLaunch(
                "hmm_forward", (n,), scalars={"t": t},
                buffers={"a": ("a", 0), "b": ("b", 0), "pi": ("pi", 0),
                         "obs": ("obs", 0), "alpha": ("alpha", 0),
                         "scale": ("scale", 0)}))
        for t in reversed(range(t_obs)):
            launches.append(StaticLaunch(
                "hmm_backward", (n,), scalars={"t": t},
                buffers={"a": ("a", 0), "b": ("b", 0), "obs": ("obs", 0),
                         "beta": ("beta", 0), "scale": ("scale", 0)}))
        launches.append(StaticLaunch(
            "hmm_estimate_pi", (n,),
            buffers={"alpha": ("alpha", 0), "beta": ("beta", 0),
                     "scale": ("scale", 0), "pi_out": ("pi_out", 0)}))
        launches.append(StaticLaunch(
            "hmm_estimate_a", (n * n,),
            buffers={"a": ("a", 0), "b": ("b", 0), "obs": ("obs", 0),
                     "alpha": ("alpha", 0), "beta": ("beta", 0),
                     "a_out": ("a_out", 0)}))
        launches.append(StaticLaunch(
            "hmm_estimate_b", (n * s,),
            buffers={"obs": ("obs", 0), "alpha": ("alpha", 0),
                     "beta": ("beta", 0), "scale": ("scale", 0),
                     "b_out": ("b_out", 0)}))
        return StaticLaunchModel(
            source=kernels_cl.HMM_CL,
            macros={"N_STATES": n, "N_SYMBOLS": s, "T_OBS": t_obs},
            buffers={
                "a": StaticBuffer("a", n * n * 4),
                "b": StaticBuffer("b", n * s * 4),
                "pi": StaticBuffer("pi", n * 4),
                "obs": StaticBuffer("obs", t_obs * 4),
                "alpha": StaticBuffer("alpha", t_obs * n * 4),
                "beta": StaticBuffer("beta", t_obs * n * 4),
                "scale": StaticBuffer("scale", t_obs * 4),
                "a_out": StaticBuffer("a_out", n * n * 4),
                "b_out": StaticBuffer("b_out", n * s * 4),
                "pi_out": StaticBuffer("pi_out", n * 4),
            },
            launches=tuple(launches),
        )

    def host_setup(self, context: Context) -> None:
        self.context = context
        rng = np.random.default_rng(self.seed)
        n, s, t = self.n_states, self.n_symbols, self.t_obs

        def stochastic(shape):
            m = rng.uniform(0.1, 1.0, size=shape)
            return (m / m.sum(axis=-1, keepdims=True)).astype(np.float32)

        self.a0 = stochastic((n, n))
        self.b0 = stochastic((n, s))
        self.pi0 = stochastic((n,))
        self.obs = rng.integers(0, s, size=t, dtype=np.int32)

        self.buf_a = context.buffer_like(self.a0, MemFlags.READ_ONLY)
        self.buf_b = context.buffer_like(self.b0, MemFlags.READ_ONLY)
        self.buf_pi = context.buffer_like(self.pi0, MemFlags.READ_ONLY)
        self.buf_obs = context.buffer_like(self.obs, MemFlags.READ_ONLY)
        self.buf_alpha = context.buffer_like(np.zeros((t, n), np.float32))
        self.buf_beta = context.buffer_like(np.zeros((t, n), np.float32))
        self.buf_scale = context.buffer_like(np.zeros(t, np.float32))
        self.buf_a_out = context.buffer_like(np.zeros((n, n), np.float32))
        self.buf_b_out = context.buffer_like(np.zeros((n, s), np.float32))
        self.buf_pi_out = context.buffer_like(np.zeros(n, np.float32))

        program = Program(context, [
            KernelSource("hmm_forward", _forward_kernel, self._profile_step,
                         cl_source=kernels_cl.HMM_CL),
            KernelSource("hmm_backward", _backward_kernel, self._profile_step,
                         cl_source=kernels_cl.HMM_CL),
            KernelSource("hmm_estimate_pi", _estimate_pi_kernel, self._profile_pi,
                         cl_source=kernels_cl.HMM_CL),
            KernelSource("hmm_estimate_a", _estimate_a_kernel, self._profile_a,
                         cl_source=kernels_cl.HMM_CL),
            KernelSource("hmm_estimate_b", _estimate_b_kernel, self._profile_b,
                         cl_source=kernels_cl.HMM_CL),
        ]).build()
        self.kernels = program.all_kernels()
        self._setup_done = True

    def transfer_inputs(self, queue) -> list[Event]:
        self._require_setup()
        return [
            queue.enqueue_write_buffer(self.buf_a, self.a0),
            queue.enqueue_write_buffer(self.buf_b, self.b0),
            queue.enqueue_write_buffer(self.buf_pi, self.pi0),
            queue.enqueue_write_buffer(self.buf_obs, self.obs),
        ]

    def run_iteration(self, queue) -> list[Event]:
        """One Baum-Welch step: 2T recurrence launches + 3 estimators."""
        self._require_setup()
        events = []
        n = self.n_states
        fwd = self.kernels["hmm_forward"]
        for t in range(self.t_obs):
            fwd.set_args(self.buf_a, self.buf_b, self.buf_pi, self.buf_obs,
                         self.buf_alpha, self.buf_scale, t)
            events.append(queue.enqueue_nd_range_kernel(fwd, (n,)))
        bwd = self.kernels["hmm_backward"]
        for t in reversed(range(self.t_obs)):
            bwd.set_args(self.buf_a, self.buf_b, self.buf_obs,
                         self.buf_beta, self.buf_scale, t)
            events.append(queue.enqueue_nd_range_kernel(bwd, (n,)))
        kpi = self.kernels["hmm_estimate_pi"].set_args(
            self.buf_alpha, self.buf_beta, self.buf_scale, self.buf_pi_out)
        events.append(queue.enqueue_nd_range_kernel(kpi, (n,)))
        ka = self.kernels["hmm_estimate_a"].set_args(
            self.buf_a, self.buf_b, self.buf_obs, self.buf_alpha,
            self.buf_beta, self.buf_a_out)
        events.append(queue.enqueue_nd_range_kernel(ka, (n * n,)))
        kb = self.kernels["hmm_estimate_b"].set_args(
            self.buf_obs, self.buf_alpha, self.buf_beta, self.buf_scale,
            self.buf_b_out)
        events.append(queue.enqueue_nd_range_kernel(kb, (n * self.n_symbols,)))
        return events

    def collect_results(self, queue) -> list[Event]:
        self._require_setup()
        n, s = self.n_states, self.n_symbols
        self.a_out = np.empty((n, n), np.float32)
        self.b_out = np.empty((n, s), np.float32)
        self.pi_out = np.empty(n, np.float32)
        self.scale_out = np.empty(self.t_obs, np.float32)
        return [
            queue.enqueue_read_buffer(self.buf_a_out, self.a_out),
            queue.enqueue_read_buffer(self.buf_b_out, self.b_out),
            queue.enqueue_read_buffer(self.buf_pi_out, self.pi_out),
            queue.enqueue_read_buffer(self.buf_scale, self.scale_out),
        ]

    # ------------------------------------------------------------------
    def log_likelihood(self) -> float:
        """log P(O | model) from the forward scaling factors."""
        if self.scale_out is None:
            raise ValidationError("hmm: results were never collected")
        return float(-np.log(self.scale_out.astype(np.float64)).sum())

    def _reference(self):
        """Float64 Baum-Welch step (independent formulation)."""
        a = self.a0.astype(np.float64)
        b = self.b0.astype(np.float64)
        pi = self.pi0.astype(np.float64)
        obs = self.obs
        t_len, n = self.t_obs, self.n_states
        alpha = np.zeros((t_len, n))
        c = np.zeros(t_len)
        alpha[0] = pi * b[:, obs[0]]
        c[0] = 1.0 / alpha[0].sum()
        alpha[0] *= c[0]
        for t in range(1, t_len):
            alpha[t] = (alpha[t - 1] @ a) * b[:, obs[t]]
            c[t] = 1.0 / alpha[t].sum()
            alpha[t] *= c[t]
        beta = np.zeros((t_len, n))
        beta[-1] = c[-1]
        for t in range(t_len - 2, -1, -1):
            beta[t] = c[t] * (a @ (b[:, obs[t + 1]] * beta[t + 1]))
        gamma = alpha * beta / c[:, None]
        gamma /= gamma.sum(axis=1, keepdims=True)
        xi_sum = np.zeros((n, n))
        for t in range(t_len - 1):
            xi_sum += a * np.outer(alpha[t], b[:, obs[t + 1]] * beta[t + 1])
        new_pi = gamma[0]
        new_a = xi_sum / np.maximum(
            (alpha[:-1] * beta[:-1]).sum(axis=0)[:, None], 1e-300
        )
        new_a /= new_a.sum(axis=1, keepdims=True)
        new_b = np.zeros((n, self.n_symbols))
        for t in range(t_len):
            new_b[:, obs[t]] += gamma[t]
        new_b /= gamma.sum(axis=0)[:, None]
        return new_a, new_b, new_pi, float(-np.log(c).sum())

    def validate(self) -> None:
        if self.a_out is None:
            raise ValidationError("hmm: results were never collected")
        ref_a, ref_b, ref_pi, ref_ll = self._reference()
        assert_close(self.pi_out, ref_pi, 1e-3, "hmm: pi re-estimate")
        assert_close(self.a_out, ref_a, 1e-3, "hmm: A re-estimate")
        assert_close(self.b_out, ref_b, 1e-3, "hmm: B re-estimate")
        if abs(self.log_likelihood() - ref_ll) > 1e-2 * max(abs(ref_ll), 1.0):
            raise ValidationError(
                f"hmm: log-likelihood {self.log_likelihood():.4f} vs "
                f"reference {ref_ll:.4f}"
            )

    # ------------------------------------------------------------------
    def _profile_step(self, nd, *args) -> KernelProfile:
        n = self.n_states
        return KernelProfile(
            name="hmm_step",
            flops=2.0 * n * n + 3.0 * n,
            int_ops=2.0 * n,
            bytes_read=(n * n + 3 * n) * 4.0,
            bytes_written=n * 4.0,
            working_set_bytes=float(self.launch_footprint_bytes),
            work_items=n,
            seq_fraction=0.7,
            strided_fraction=0.3,
        )

    def _profile_pi(self, nd, *args) -> KernelProfile:
        n = self.n_states
        return KernelProfile(
            name="hmm_estimate_pi", flops=4.0 * n, int_ops=n,
            bytes_read=3 * n * 4.0, bytes_written=n * 4.0,
            working_set_bytes=3 * n * 4.0, work_items=n,
        )

    def _profile_a(self, nd, *args) -> KernelProfile:
        n, t = self.n_states, self.t_obs
        return KernelProfile(
            name="hmm_estimate_a",
            flops=4.0 * t * n * n,
            int_ops=t * n,
            bytes_read=(t * 3 * n + n * n) * 4.0,
            bytes_written=n * n * 4.0,
            working_set_bytes=float(self.launch_footprint_bytes),
            work_items=n * n,
            seq_fraction=0.8, strided_fraction=0.2,
        )

    def _profile_b(self, nd, *args) -> KernelProfile:
        n, s, t = self.n_states, self.n_symbols, self.t_obs
        return KernelProfile(
            name="hmm_estimate_b",
            flops=3.0 * t * n,
            int_ops=t * n,
            bytes_read=t * 2 * n * 4.0,
            bytes_written=n * s * 4.0,
            working_set_bytes=float(self.launch_footprint_bytes),
            work_items=n * s,
            seq_fraction=0.7, strided_fraction=0.1, random_fraction=0.2,
        )

    def profiles(self) -> list[KernelProfile]:
        return [
            self._profile_step(None).scaled(2 * self.t_obs),
            self._profile_pi(None),
            self._profile_a(None),
            self._profile_b(None),
        ]

    def trace_spec(self) -> trace_mod.TraceSpec:
        """A-matrix re-streamed per timestep; lattices streamed once."""
        n, t = self.n_states, self.t_obs
        a_bytes = n * n * 4
        lattice_bytes = 2 * t * n * 4
        return trace_mod.TraceSpec.single(
            trace_mod.seq(a_bytes, passes=min(t, 8), budget=("floordiv", 2)),
            trace_mod.seq(lattice_bytes, passes=1, offset=a_bytes,
                          budget=("floordiv", 2)),
        )
