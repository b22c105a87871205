import numpy as np

from bipareto import GenSpec, generate_instance
from bipareto.exact import _Successors


def make_instances(seed, count, n_range, p_range=(1, 20), q_range=(1, 20)):
    """Deterministic test instances drawn from the package's own generator."""
    spec = GenSpec(n_range, p_range, q_range, seed, count)
    return [generate_instance(spec, i) for i in range(count)]


def successor_pool(pairs):
    """A successor pool holding the given (lmax, cmax) children in pool order."""
    return _Successors(
        lmax=np.array([l for l, _ in pairs], dtype=np.int64),
        cmax=np.array([c for _, c in pairs], dtype=np.int64),
    )
