"""The runtime paths of the package import and run with scipy unimportable."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _run(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": SRC, "OMP_NUM_THREADS": "1"})


def test_cli_import_loads_no_scipy():
    proc = _run("""
        import sys
        import factorcavity.cli
        print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_runtime_paths_run_without_scipy():
    proc = _run("""
        import sys
        sys.modules["scipy"] = None  # any scipy import now raises ImportError

        import factorcavity, factorcavity.cli
        from factorcavity import (DegreeSpec, bethe_estimate, boltzmann_sample,
                                  check_pos, models, partition_function,
                                  population_dynamics, sample_degree_sequence,
                                  sample_planted, uniform_assignment)
        from factorcavity.rng import substream

        ldgm = models.ldgm(0.2, DegreeSpec.poisson(2.5), DegreeSpec.constant(3))
        kspin = models.kspin(0.8, DegreeSpec.from_mapping({2: 0.5, 3: 0.5}), r=3)
        sbm = models.sbm(3, 1.0, 3)

        seq = sample_degree_sequence(8, sbm.dspec, sbm.kspec, 1)
        sigma = uniform_assignment(8, 3, substream(1, 4))
        g = sample_planted(seq, sigma, sbm.family, 0, 1)
        summary = partition_function(g)
        draws = boltzmann_sample(g, 5, 2)
        assert draws.shape == (5, 8)

        for model in (ldgm, kspin, sbm):
            pop = population_dynamics(model, pop_size=100, iters=2, seed=3)
            est = bethe_estimate(pop, model, samples=200, seed=3)
            assert est.value == est.value
            assert check_pos(model.family, trials=3, seed=3).passed
        print("ok", summary.log_z)
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ok")
