"""gem — the N-Body Methods dwarf.

Gemnoui computes the electrostatic potential of a biomolecular
structure: for every vertex of the molecular surface, the Coulomb sum
over all atom partial charges (an all-pairs O(V·A) kernel, heavily
floating-point bound — the classic N-body pattern).

Input molecules are the synthetic structures of
:mod:`repro.io.molecules`, whose device footprints match the paper's
four datasets (4TUT / 2D3V / nucleosome / 1KX5).  As in the paper —
where uninitialised values made the medium/large molecules unreliable
and only the tiny size is evaluated (Fig. 4a) — the evaluation harness
runs the tiny (4TUT) dataset; the other sizes remain fully runnable.

Validation compares against a float64 direct sum.
"""

from __future__ import annotations

import numpy as np

from ..cache import trace as trace_mod
from ..io import molecules as mol
from ..ocl import Context, Event, KernelSource, MemFlags, Program
from ..perfmodel.characterization import KernelProfile
from . import kernels_cl
from .base import (Benchmark, StaticBuffer, StaticLaunch, StaticLaunchModel,
                   ValidationError, assert_close)

#: Softening term keeping the kernel finite if a vertex touches an atom.
SOFTENING = 1e-6

#: Atoms processed per inner tile (the OpenCL kernel's local-memory tile).
TILE = 256


def _gem_kernel(nd, atoms, vertices, potential):
    """Coulomb sum, tiled over atoms to bound temporary memory."""
    pos = atoms[:, :3]
    charge = atoms[:, 3]
    acc = np.zeros(len(vertices), dtype=np.float32)
    for start in range(0, len(atoms), TILE):
        p = pos[start : start + TILE]
        q = charge[start : start + TILE]
        # (V, tile) pairwise distances
        delta = vertices[:, None, :] - p[None, :, :]
        r = np.sqrt((delta * delta).sum(axis=2) + SOFTENING)
        acc += (q[None, :] / r).sum(axis=1, dtype=np.float32)
    potential[...] = acc


class GEM(Benchmark):
    """N-Body Methods dwarf: biomolecular electrostatic potential."""

    name = "gem"
    dwarf = "N-Body Methods"
    presets = {"tiny": "4TUT", "small": "2D3V", "medium": "nucleosome",
               "large": "1KX5"}
    args_template = "{phi} 80 1 0"

    def __init__(self, dataset: str = "4TUT", seed: int = 17):
        super().__init__()
        if dataset not in mol.MOLECULES:
            known = ", ".join(mol.MOLECULES)
            raise ValueError(f"unknown gem dataset {dataset!r} (known: {known})")
        self.dataset = dataset
        self.spec = mol.MOLECULES[dataset]
        self.seed = seed
        self.molecule: mol.Molecule | None = None
        self.potential_out: np.ndarray | None = None

    # ------------------------------------------------------------------
    @classmethod
    def from_scale(cls, phi, **overrides) -> "GEM":
        return cls(dataset=str(phi), **overrides)

    @classmethod
    def from_args(cls, argv: list[str], **overrides) -> "GEM":
        """Parse ``<molecule> 80 1 0`` (Table 3; trailing numbers are
        the gem resolution/flags, fixed across sizes)."""
        if not argv:
            raise ValueError("gem: molecule name required")
        return cls(dataset=argv[0], **overrides)

    # ------------------------------------------------------------------
    def static_launches(self) -> StaticLaunchModel:
        na, nv = self.spec.n_atoms, self.spec.n_vertices
        return StaticLaunchModel(
            source=kernels_cl.GEM_CL,
            macros={"N_ATOMS": na, "SOFTENING": SOFTENING},
            buffers={
                "atoms": StaticBuffer("atoms", na * mol.ATOM_BYTES),
                # (nv, 3) float32 positions; with the nv*4 potential this
                # sums to the spec's VERTEX_BYTES per vertex
                "vertices": StaticBuffer("vertices", nv * 12),
                "potential": StaticBuffer("potential", nv * 4),
            },
            launches=(
                StaticLaunch(
                    "gem_potential", (nv,),
                    buffers={"atoms": ("atoms", 0),
                             "vertices": ("vertices", 0),
                             "potential": ("potential", 0)},
                ),
            ),
        )

    def host_setup(self, context: Context) -> None:
        self.context = context
        self.molecule = mol.generate(self.spec, seed=self.seed)
        self.buf_atoms = context.buffer_like(self.molecule.atoms, MemFlags.READ_ONLY)
        self.buf_vertices = context.buffer_like(self.molecule.vertices,
                                                MemFlags.READ_ONLY)
        self.buf_potential = context.buffer_like(
            np.zeros(self.spec.n_vertices, dtype=np.float32)
        )
        program = Program(context, [
            KernelSource("gem_potential", _gem_kernel, self._profile_gem,
                         cl_source=kernels_cl.GEM_CL),
        ]).build()
        self.kernel = program.create_kernel("gem_potential").set_args(
            self.buf_atoms, self.buf_vertices, self.buf_potential
        )
        self._setup_done = True

    def transfer_inputs(self, queue) -> list[Event]:
        self._require_setup()
        return [
            queue.enqueue_write_buffer(self.buf_atoms, self.molecule.atoms),
            queue.enqueue_write_buffer(self.buf_vertices, self.molecule.vertices),
        ]

    def run_iteration(self, queue) -> list[Event]:
        self._require_setup()
        return [queue.enqueue_nd_range_kernel(self.kernel, (self.spec.n_vertices,))]

    def collect_results(self, queue) -> list[Event]:
        self._require_setup()
        self.potential_out = np.empty(self.spec.n_vertices, dtype=np.float32)
        return [queue.enqueue_read_buffer(self.buf_potential, self.potential_out)]

    def validate(self) -> None:
        if self.potential_out is None:
            raise ValidationError("gem: results were never collected")
        pos = self.molecule.atoms[:, :3].astype(np.float64)
        charge = self.molecule.atoms[:, 3].astype(np.float64)
        vertices = self.molecule.vertices.astype(np.float64)
        # float64 direct sum, chunked over vertices
        expected = np.empty(len(vertices))
        chunk = 2048
        for start in range(0, len(vertices), chunk):
            v = vertices[start : start + chunk]
            delta = v[:, None, :] - pos[None, :, :]
            r = np.sqrt((delta**2).sum(axis=2) + SOFTENING)
            expected[start : start + chunk] = (charge[None, :] / r).sum(axis=1)
        assert_close(self.potential_out, expected, 1e-3,
                     "gem: potential vs float64 direct sum")

    # ------------------------------------------------------------------
    def _profile_gem(self, nd, atoms=None, vertices=None, potential=None
                     ) -> KernelProfile:
        v, a = self.spec.n_vertices, self.spec.n_atoms
        pairs = float(v) * a
        return KernelProfile(
            name="gem_potential",
            flops=11.0 * pairs,             # 3 sub, 3 mul, 2 add, rsqrt(2), div
            int_ops=2.0 * pairs,
            bytes_read=v * 12.0 + a * 16.0 * max(v // 4096, 1),  # atoms re-streamed per tile group
            bytes_written=v * 4.0,
            working_set_bytes=float(self.footprint_bytes()),
            work_items=v,
            seq_fraction=0.95,
            strided_fraction=0.05,
            branch_fraction=0.02,
        )

    def profiles(self) -> list[KernelProfile]:
        return [self._profile_gem(None)]

    def trace_spec(self) -> trace_mod.TraceSpec:
        """Vertices streamed once; atoms re-streamed (high reuse)."""
        atom_bytes = self.spec.n_atoms * mol.ATOM_BYTES
        vertex_bytes = self.spec.n_vertices * mol.VERTEX_BYTES
        return trace_mod.TraceSpec.single(
            trace_mod.seq(atom_bytes, passes=4, budget=("floordiv", 2)),
            trace_mod.seq(vertex_bytes, passes=1, offset=atom_bytes,
                          budget=("floordiv", 2)),
        )
