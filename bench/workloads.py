"""Workload registry."""

from wl_calibration import Calibration
from wl_chain_sweep import ChainSweep
from wl_cli import Cli

CLASSES = {"cli": Cli, "chain_sweep": ChainSweep, "calibration": Calibration}
ALL = tuple(CLASSES)
IN_PROCESS = ("chain_sweep", "calibration")


def make(name, seed, workdir=None, checkout=None):
    if name == "cli":
        return Cli(seed, workdir, checkout)
    return CLASSES[name](seed)
