"""Reference implementations that the library's fast paths are checked against."""

from tetracomm.schedule import TransferDemand


def build_demands_by_intersection(part) -> list[TransferDemand]:
    """All ordered-pair demands by intersecting the row-block sets of all P² pairs."""
    sets = [set(r) for r in part.R]
    demands = []
    for src in range(1, part.P + 1):
        for dst in range(1, part.P + 1):
            if src == dst:
                continue
            shared = sorted(sets[src - 1] & sets[dst - 1])
            if shared:
                demands.append(TransferDemand(src, dst, tuple(shared)))
    return demands
