import numpy as np

from bipareto import GenSpec, generate_instance


def make_instances(seed, count, n_range, p_range=(1, 20), q_range=(1, 20)):
    """Deterministic test instances drawn from the package's own generator."""
    spec = GenSpec(n_range, p_range, q_range, seed, count)
    return [generate_instance(spec, i) for i in range(count)]


def successor_pool(pairs):
    """``(lmax, cmax)`` int64 arrays of the given children in pool order."""
    return (
        np.array([l for l, _ in pairs], dtype=np.int64),
        np.array([c for _, c in pairs], dtype=np.int64),
    )
