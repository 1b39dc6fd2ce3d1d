"""Built-in catalog: the semigroups, actions, graphs and groupoids that the
acceptance sweep and the CLI operate on.  Hand-written data is validated;
derived instances are built by proof (see their constructors).  Only the
graph-backed instances import graph."""

from functools import lru_cache

from . import germs, invsemi, paction


def _cyclic_group(n, names):
    tbl = [[(i + j) % n for j in range(n)] for i in range(n)]
    return invsemi.validate_inverse_semigroup(names, tbl)


def _chain_semilattice(n):
    # 0 is the top; products are maxima of indices (meet in the order 0 > 1 > ...)
    names = ["1"] + [f"e{i}" for i in range(1, n)]
    tbl = [[max(i, j) for j in range(n)] for i in range(n)]
    return invsemi.validate_inverse_semigroup(names, tbl)


@lru_cache(maxsize=None)
def semigroup(name):
    name = name.lower()
    if name == "z2":
        return _cyclic_group(2, ["1", "g"])
    if name == "z3":
        return _cyclic_group(3, ["1", "a", "a2"])
    if name == "chain2":
        return _chain_semilattice(2)
    if name == "chain3":
        return _chain_semilattice(3)
    if name == "i2":
        return invsemi.symmetric_inverse_semigroup(2)[0]
    if name == "sz2":
        return invsemi.exel_semigroup(semigroup("z2")).semigroup
    if name == "se-edge":
        from . import graph

        return graph.graph_semigroup(graphs("edge"))[0]
    raise KeyError(f"unknown catalog semigroup {name!r}")


SEMIGROUP_NAMES = ("z2", "z3", "chain2", "chain3", "i2", "sz2", "se-edge")


@lru_cache(maxsize=None)
def graphs(name):
    from . import graph

    name = name.lower()
    if name == "loop":
        return graph.make_graph(["v"], [("e", "v", "v")])
    if name == "loop-exit":
        return graph.make_graph(["v", "w"], [("e", "v", "v"), ("f", "v", "w")])
    if name == "edge":
        return graph.make_graph(["v", "w"], [("e", "v", "w")])
    if name == "fan":
        return graph.make_graph(["u", "w1", "w2"], [("e1", "u", "w1"), ("e2", "u", "w2")])
    if name == "cycle2-exit":
        return graph.make_graph(
            ["u", "v", "w"], [("a", "u", "v"), ("b", "v", "u"), ("c", "v", "w")]
        )
    raise KeyError(f"unknown catalog graph {name!r}")


GRAPH_NAMES = ("loop", "loop-exit", "edge", "fan", "cycle2-exit")


def _z2_swap():
    z2 = semigroup("z2")
    return paction.validate_partial_action(
        z2, ("x", "y", "z"), ((0, 1, 2), (0, 1)), ({0: 0, 1: 1, 2: 2}, {0: 1, 1: 0})
    )


@lru_cache(maxsize=None)
def action(name):
    name = name.lower()
    if name[:5] in ("munn-", "self-") and name[5:] in SEMIGROUP_NAMES:
        build = invsemi.munn_representation if name[:5] == "munn-" else invsemi.canonical_self_action
        return build(semigroup(name[5:]))
    if name == "z2-swap":
        return _z2_swap()
    if name == "z2-swap-exel":
        return paction.induced_exel_action(_z2_swap())[0]
    if name == "z2-trivial-pt":
        return paction.one_point_trivial_action(semigroup("z2"))
    if name in ("edge-boundary", "fan-boundary"):
        from . import graph

        return graph.canonical_graph_action(graphs(name.removesuffix("-boundary")))[0]
    if name == "pair-bisections":
        amp = germs.ample_semigroup(groupoid("pair"))
        return germs.canonical_bisection_action(amp)
    raise KeyError(f"unknown catalog action {name!r}")


ACTION_NAMES = (
    "munn-z2",
    "munn-z3",
    "munn-chain2",
    "munn-chain3",
    "munn-i2",
    "munn-sz2",
    "munn-se-edge",
    "self-z2",
    "self-chain2",
    "self-sz2",
    "self-se-edge",
    "z2-swap",
    "z2-swap-exel",
    "z2-trivial-pt",
    "edge-boundary",
    "fan-boundary",
    "pair-bisections",
)


def pair_groupoid(n=2):
    """The full equivalence-relation groupoid on n units: arrows (i<-j).

    A groupoid by proof, so not validated: (i<-j)(j<-k) = (i<-k) is typed
    and associative, the (i<-i) are its units and (j<-i) inverts (i<-j)."""
    arrows = [(i, j) for i in range(n) for j in range(n)]
    aidx = {a: k for k, a in enumerate(arrows)}
    names = tuple(f"({i+1}|{j+1})" for i, j in arrows)
    units = tuple(aidx[(i, i)] for i in range(n))
    source = tuple(aidx[(j, j)] for i, j in arrows)
    target = tuple(aidx[(i, i)] for i, j in arrows)
    inverse = tuple(aidx[(j, i)] for i, j in arrows)
    compose = germs.compose_table(
        source, target, lambda a, b: aidx[(arrows[a][0], arrows[b][1])])
    return germs.FiniteGroupoid(names, units, source, target, inverse, compose)


@lru_cache(maxsize=None)
def groupoid(name):
    name = name.lower()
    if name == "pair":
        return pair_groupoid(2)
    if name == "z2-one-unit":
        return germs.groupoid_of_germs(action("z2-trivial-pt")).groupoid
    if name[:3] == "rp-" and name[3:] in SEMIGROUP_NAMES:
        return invsemi.restricted_product_groupoid(semigroup(name[3:]))
    if name[:5] == "germ-" and name[5:] in ACTION_NAMES:
        return germs.groupoid_of_germs(action(name[5:])).groupoid
    if name == "boundary-edge":
        from . import graph

        return graph.boundary_groupoid(graphs("edge"))[0]
    raise KeyError(f"unknown catalog groupoid {name!r}")


GROUPOID_NAMES = (
    "pair",
    "z2-one-unit",
    "rp-chain2",
    "rp-chain3",
    "rp-i2",
    "rp-sz2",
    "rp-se-edge",
    "boundary-edge",
)
