"""Run one pqncheck CLI invocation with a span around each public layer function.

Usage: python perfbench/trace_child.py SPANS_PATH CLI_ARG [CLI_ARG ...]

Every listed function is replaced by a wrapper in each loaded ``pqncheck``
module namespace that binds it (``structures`` imports the calculus and
exterior names directly, so patching the defining module alone would miss
those calls); class operators are patched on the class.  Spans
``[name_index, start_ns, end_ns, parent_index]`` stay in memory and are written to
SPANS_PATH as JSON when the CLI returns, together with two counters.  The
report the CLI prints is not touched.
"""

from __future__ import annotations

import json
import sys
import time

import pqncheck.cli
from pqncheck.exterior import Tensor11
from pqncheck.scalar import ScalarField, Sum

# span name -> (defining module, function names)
FUNCTIONS = {
    "scalar.is_zero": ("scalar", ("is_zero",)),
    "scalar.sample_points": ("scalar", ("sample_points",)),
    "exterior.wedge": ("exterior", ("wedge",)),
    "exterior.interior": ("exterior", ("interior",)),
    "exterior.tensor_interior": ("exterior", ("tensor_interior",)),
    "exterior.lie_derivative": ("exterior", ("lie_derivative",)),
    "exterior.pi_sharp": ("exterior", ("pi_sharp",)),
    "calculus.cartan_d": ("calculus", ("cartan_d",)),
    "calculus.nijenhuis_d": ("calculus", ("nijenhuis_d",)),
    "calculus.nijenhuis_torsion": ("calculus", ("nijenhuis_torsion",)),
    "calculus.koszul_bracket": ("calculus", ("koszul_bracket",)),
    "calculus.poisson_bracket": ("calculus", ("poisson_bracket",)),
    "structures.check_poisson": ("structures", ("check_poisson",)),
    "structures.check_pqn": ("structures", ("check_pqn",)),
    "structures.deform": ("structures", ("deform",)),
    "structures.trace_invariants": ("structures", ("trace_invariants",)),
    "structures.involutivity_matrix": ("structures", ("involutivity_matrix",)),
    "models.build": (
        "models",
        (
            "canonical_pn",
            "canonical_poisson",
            "canonical_nijenhuis",
            "closed_toda",
            "open_toda",
            "calogero",
            "pair_potential_model",
            "two_particle_model",
            "das_okubo_omega_hat",
            "canonical_deformation_form",
        ),
    ),
    "randgen.random_scalar_field": ("randgen", ("random_scalar_field",)),
    "cli.main": ("cli", ("main",)),
}

# span name -> (class, method names)
METHODS = {
    "scalar.arith": (
        ScalarField,
        (
            "__add__",
            "__radd__",
            "__sub__",
            "__rsub__",
            "__mul__",
            "__rmul__",
            "__truediv__",
            "__rtruediv__",
            "__pow__",
            "__neg__",
        ),
    ),
    "scalar.partial": (ScalarField, ("partial",)),
    "scalar.evaluate": (ScalarField, ("evaluate", "term_scale")),
    "exterior.tensor_matmul": (Tensor11, ("__matmul__",)),
}


class Recorder:
    """In-memory spans plus the counters read off results."""

    def __init__(self):
        self.names: list[str] = [*FUNCTIONS, *METHODS]
        self.spans: list[list] = []
        self.stack: list[int] = [-1]
        self.counters = {"scalar.arith.results": 0, "scalar.arith.result_terms": 0, "scalar.is_zero.samples": 0}

    def wrap(self, name, fn, observe=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        index = self.names.index(name)

        def traced(*args, **kwargs):
            record = [index, 0, 0, stack[-1]]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return traced

    def count_terms(self, result) -> None:
        if isinstance(result, ScalarField):
            self.counters["scalar.arith.results"] += 1
            root = result.root
            self.counters["scalar.arith.result_terms"] += len(root.terms) if isinstance(root, Sum) else 1

    def count_samples(self, verdict) -> None:
        self.counters["scalar.is_zero.samples"] += verdict.samples

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "pqncheck" or key.startswith("pqncheck.")]
        observers = {"scalar.is_zero": self.count_samples, "scalar.arith": self.count_terms}
        for name, (home, attrs) in FUNCTIONS.items():
            for attr in attrs:
                original = getattr(sys.modules[f"pqncheck.{home}"], attr)
                wrapper = self.wrap(name, original, observers.get(name))
                for module in modules:
                    if getattr(module, attr, None) is original:
                        setattr(module, attr, wrapper)
        for name, (cls, attrs) in METHODS.items():
            for attr in attrs:
                setattr(cls, attr, self.wrap(name, getattr(cls, attr), observers.get(name)))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans, "counters": self.counters}, fh)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    recorder.install()
    try:
        return pqncheck.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
