"""The benchmark's workloads: which operations one iteration runs.

One operation is one call of ``strongdrive.cli.main`` or one calibration
call.  Every command runs at the default config (``threads = 1``) with the
benchmark's seed passed as ``--seed``.
"""

from __future__ import annotations

import json
from pathlib import Path

#: Operations per workload, in run order.  A tuple is a CLI argv; the
#: string "calibration" is an uncached ``prerotation_pulses(QubitParams())``.
WORKLOADS = {
    # Floquet tracker (~87%) and monodromy oracle (~13%); no spectral or
    # tomography work, 60 KB of output.
    "quasienergy-sweep": (("quasienergies", "--oracle"),),
    # Long batched Magnus traces and 2500-duration batched falls, 10.6 MB of
    # CSV; peak memory is set by the batched falls of edge-study.
    "drive-scan": (("rabi-scan",), ("edge-study",), ("tomography-trace",)),
    # 11,244 small magnus_segment calls, 16 sequential trains inside brentq
    # and 402 MLE calls: per-call overhead rather than per-step rate.
    "state-tomography": ("calibration", ("state-prep",)),
}


def op_name(op) -> str:
    return op if isinstance(op, str) else op[0]


def run_op(op, out_dir: Path, seed: int) -> None:
    """Run one operation, writing its outputs into ``out_dir``.

    Raises RuntimeError when a command exits non-zero; exceptions from the
    library propagate.
    """
    from strongdrive import cli, tomography
    from strongdrive.model import QubitParams

    if op == "calibration":
        # prerotation_pulses is lru-cached; each experiment process pays for
        # calibration once, so the benchmark calls the uncached function.
        pulses = tomography.prerotation_pulses.__wrapped__(QubitParams())
        payload = {
            name: {"t_plateau_ns": p.t_plateau, "carrier_phase_rad": p.carrier_phase}
            for name, p in pulses.items()
        }
        (out_dir / "calibration.json").write_text(json.dumps(payload, sort_keys=True))
        return
    rc = cli.main([*op, "--out", str(out_dir), "--seed", str(seed)])
    if rc != 0:
        raise RuntimeError(f"strongdrive {op[0]} exited with code {rc}")


def bytes_written(out_dir: Path) -> int:
    """Bytes the last command wrote: its outputs plus its run_report.json."""
    report_path = out_dir / "run_report.json"
    report = json.loads(report_path.read_text())
    return sum(o["bytes"] for o in report["outputs"]) + report_path.stat().st_size
