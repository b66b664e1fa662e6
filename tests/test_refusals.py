"""Every refusal of the package that no other test reaches, one row each:
the call, the error it raises and the whole message."""

import re

import pytest

from globwork import cylinders as cyl
from globwork import globsets as gs
from globwork import steiner
from globwork import theory as T
from globwork.computads import Computad, fcomp, fvar, fwhisker
from globwork.errors import AdmissibilityError, DomainError, TypingError
from globwork.theory import app_cell, base_theory, glob_cell, single, standard_library, zero_cell_pick
from globwork.theta import (
    ThetaMap,
    assemble,
    boundary_maps,
    face_theta,
    filler,
    glob_top_image,
    identity,
    is_admissible_categorical,
    is_admissible_groupoidal,
    leaf_inclusion,
    to_steiner_cell,
)
from globwork.trees import LEAF, Tree, boundary_table_oracle, globe

TWO = Tree((LEAF, LEAF))  # [[][]], two edges
PAIR = Tree((globe(1), globe(1)))  # [[[]][[]]], two 2-globes side by side
TOWER = standard_library(3)


def term(source, target, *maps):
    return T.Term(source, target, tuple(glob_cell(m) for m in maps))


def adjoin(th, name, arity, k, src, tgt):
    return lambda: th.copy()._adjoin(name, arity, k, src, tgt)


def point_pick(A, a):
    return single(0, A, zero_cell_pick(A, a))


# a few globular sets: points a, b; edges f : a -> b and g : b -> a
POINTS = gs.FinGlobSet(0, [("a", "b")], [{}], [{}])
LOOP = gs.FinGlobSet(1, [("a", "b"), ("f", "g")], [{}, {"f": "a", "g": "b"}], [{}, {"f": "b", "g": "a"}])
A, B = fvar("a", 0), fvar("b", 0)
F, G = fvar("f", 1, A, B), fvar("g", 1, B, A)


def twice(name, dim, src=None, tgt=None):
    P = Computad("P")
    P.add(name, dim, src, tgt)
    return lambda: P.add(name, dim, src, tgt)


REFUSALS = [
    # theory: the term calculus
    ("sole", lambda: TOWER.identity_term(TWO).sole, TypingError, "term has more than one entry"),
    ("kind", lambda: T.TheoryPresentation(3, "weird"), DomainError, "unknown theory kind 'weird'"),
    ("validate-args",
     lambda: TOWER.validate_term(T.Term(globe(1), globe(1), (app_cell("c1", TOWER.identity_term(globe(1))),))),
     TypingError, "arguments of c1 must be shaped [[][]]"),
    ("validate-dimension", lambda: TOWER.validate_term(term(globe(1), globe(2), identity(globe(2)))),
     TypingError, "entry dimension does not match its leaf"),
    ("validate-target", lambda: TOWER.validate_term(term(globe(1), globe(2), identity(globe(1)))),
     TypingError, "entry lands in the wrong target"),
    ("validate-junction", lambda: TOWER.validate_term(term(TWO, globe(1), identity(globe(1)), identity(globe(1)))),
     TypingError, "leaves 0 and 1 do not share their dim-0 boundary"),
    ("boundary-of-a-point", lambda: TOWER.cell_boundary(glob_cell(identity(LEAF)), "s"),
     TypingError, "0-cells have no source"),
    ("substitute", lambda: TOWER.substitute(TOWER.identity_term(globe(1)), TOWER.identity_term(globe(2))),
     TypingError, "substitution mismatch"),
    # theory: the five checks of _adjoin that the towers never fail
    ("adjoin-dimension", adjoin(TOWER, "x", globe(1), 0, point_pick(globe(1), 0), point_pick(globe(1), 0)),
     DomainError, "operation dimension 0 out of range"),
    ("adjoin-arity", adjoin(base_theory(1), "x", globe(2), 1, point_pick(globe(2), 0), point_pick(globe(2), 0)),
     DomainError, "arity exceeds the truncation"),
    ("adjoin-boundary", adjoin(TOWER, "x", globe(1), 2, point_pick(globe(1), 0), point_pick(globe(1), 0)),
     TypingError, "boundary of 'x' must be D_1 -> arity"),
    ("adjoin-parallel",
     adjoin(TOWER, "x", TWO, 2, term(globe(1), TWO, leaf_inclusion(TWO, 0)), term(globe(1), TWO, leaf_inclusion(TWO, 1))),
     TypingError, "boundary pair of 'x' is not parallel"),
    ("adjoin-filler", adjoin(base_theory(3), "x", globe(1), 1, point_pick(globe(1), 1), point_pick(globe(1), 0)),
     AdmissibilityError, "no strict filler for categorical pair 'x'"),
    ("groupoidalize-kind", lambda: T.groupoidalize(base_theory(3, T.GROUPOIDAL)),
     DomainError, "groupoidalize expects a categorical presentation"),
    ("groupoidalize-systems", lambda: T.groupoidalize(base_theory(3)),
     DomainError, "groupoidalize needs the composition/identity systems"),
    ("cofibrations", lambda: T.generating_cofibrations(-1), DomainError, "truncation must be at least 0, got -1"),
    # theta
    ("groupoidal-target", lambda: is_admissible_groupoidal(identity(globe(1)), leaf_inclusion(TWO, 0)),
     TypingError, "admissible pairs need a common target"),
    ("groupoidal-sources", lambda: is_admissible_groupoidal(face_theta(1, "s"), identity(globe(2))),
     TypingError, "admissible pairs need equidimensional sources"),
    ("groupoidal-globe", lambda: is_admissible_groupoidal(leaf_inclusion(TWO, 0), identity(TWO)),
     DomainError, "groupoidal admissible pairs need maps out of the globe D1, not out of [[][]]"),
    ("categorical-target", lambda: is_admissible_categorical(identity(globe(1)), leaf_inclusion(TWO, 0)),
     TypingError, "admissible pairs need a common target"),
    ("filler", lambda: filler(identity(globe(1)), face_theta(1, "s")), TypingError, "filler needs a parallel pair"),
    ("boundary-maps", lambda: boundary_maps(LEAF), DomainError, "the point has no boundary"),
    ("assemble-span", lambda: assemble(Tree((TWO,)), PAIR, [leaf_inclusion(PAIR, 0), leaf_inclusion(PAIR, 1)]),
     TypingError, "leaf maps of one block disagree on their span"),
    ("assemble-join", lambda: assemble(TWO, TWO, [leaf_inclusion(TWO, 1), leaf_inclusion(TWO, 0)]),
     TypingError, "adjacent blocks do not share their joining 0-cell"),
    ("steiner", lambda: to_steiner_cell(identity(TWO)), DomainError, "only globe-sourced maps are cells"),
    ("top-image", lambda: glob_top_image(ThetaMap(globe(1), globe(1), (0, 0), ((),))),
     DomainError, "the top image needs a globular map out of a globe, not [[]]->[[]]:(0,0)"),
    ("leaf-past-the-last", lambda: leaf_inclusion(TWO, 5), DomainError, "leaf 5 out of range for [[][]], which has 2"),
    ("leaf-negative", lambda: leaf_inclusion(TWO, -1), DomainError, "leaf -1 out of range for [[][]], which has 2"),
    # steiner
    ("cells-dimension", lambda: steiner.count_cells(TWO, -1), DomainError, "cells have dimension at least 0, got -1"),
    # trees
    ("table-boundary", lambda: boundary_table_oracle(LEAF), DomainError, "the point has no boundary"),
    # globsets
    ("globset-length", lambda: gs.FinGlobSet(1, [("a",)], [{}], [{}]), TypingError, "cells/src/tgt must have length n+1"),
    ("globset-boundary", lambda: gs.FinGlobSet(1, [("a",), ("f",)], [{}, {}], [{}, {}]),
     TypingError, "missing or dangling boundary for 'f'"),
    ("globset-globularity",
     lambda: gs.FinGlobSet(2, [("a", "b"), ("f", "g"), ("x",)], [{}, {"f": "a", "g": "b"}, {"x": "f"}],
                           [{}, {"f": "b", "g": "a"}, {"x": "g"}]),
     TypingError, "globularity fails at 'x'"),
    ("globmap-components", lambda: gs.GlobMap(POINTS, POINTS, []), TypingError, "component count must match domain truncation"),
    ("globmap-image", lambda: gs.GlobMap(POINTS, POINTS, [{"a": "a"}]), TypingError, "no image for 'b'"),
    ("globmap-cell", lambda: gs.GlobMap(POINTS, POINTS, [{"a": "a", "b": "z"}]), TypingError, "image of 'b' is not a cell"),
    ("then", lambda: gs.GlobMap(POINTS, POINTS, [{"a": "a", "b": "b"}]).then(gs.boundary_inclusion(0)),
     TypingError, "composition mismatch"),
    ("sphere", lambda: gs.sphere(-2), DomainError, "sphere index must be >= -1"),
    ("pad", lambda: gs.pad_to(LOOP, 0), DomainError, "cannot pad downwards"),
    ("loopspace", lambda: gs.loopspace(LOOP, "a", "z"), DomainError, "loopspace needs two 0-cells of X"),
    ("chi-id1", lambda: gs.chi_check(gs.pad_to(LOOP, 2), {"id1": {"a": "z"}}), TypingError, "id1 entry ('a', 'z') is ill-typed"),
    # computads
    ("fcomp-empty", lambda: fcomp([]), TypingError, "empty composite"),
    ("fcomp-chain", lambda: fcomp([F, F]), TypingError, "composite chain breaks between f and f"),
    ("fwhisker", lambda: fwhisker(A, F, "r"), TypingError, "whiskering needs positive compatible dimensions"),
    ("fwhisker-side", lambda: fwhisker(F, F, "x"), DomainError, "whiskering side must be 'l' or 'r', got 'x'"),
    # the level check of the FCell constructor
    ("typecheck-dimension", lambda: fvar("x", 2, A, B), TypingError, "x has off-dimension boundary"),
    ("typecheck-parallel", lambda: fvar("x", 2, F, G), TypingError, "x has a non-parallel boundary pair"),
    ("add-twice", twice("a", 0), TypingError, "duplicate generator 'a'"),
    ("add-boundary", lambda: Computad("P").add("f", 1), TypingError, "positive-dimensional generator 'f' needs a boundary"),
    ("add-negative", lambda: Computad("P").add("x", -1), TypingError, "x has negative dimension -1"),
    ("add-bounded-point", lambda: Computad("P").add("y", 0, A, B), TypingError, "y is a 0-cell with a boundary"),
    # cylinders
    ("systems", lambda: cyl.cyl_presentation(1, base_theory(3)), DomainError, "cylinder presentations need the composition systems"),
    ("stack-dimension", lambda: cyl.stack(identity(globe(3)), TOWER), DomainError, "stacks are built for operations of dimension 1 and 2"),
    ("stack-globe", lambda: cyl.stack(identity(TWO), TOWER), DomainError, "stacks interpret globe-sourced operations"),
    ("vcompose", lambda: cyl.vcompose_meta([]), DomainError, "empty stacks have no composite"),
]


@pytest.mark.parametrize("call, error, message", [row[1:] for row in REFUSALS], ids=[row[0] for row in REFUSALS])
def test_refusal(call, error, message):
    with pytest.raises(error, match="^" + re.escape(message) + "$"):
        call()


def test_audit_reports_an_image_whose_face_has_another_phi():
    # c2's image with its phi collapsed to the first point: the evaluated
    # source of c2 spans one gap of its target, the face of that image none
    th = TOWER.copy()
    c2 = th.symbols["c2"]
    image = c2.theta_image
    collapsed = ThetaMap(image.source, image.target, (0, 0), ((),))
    th.symbols["c2"] = bad = c2._replace(theta_image=collapsed)
    th.stages[2] = [bad if sym is c2 else sym for sym in th.stages[2]]
    assert th.audit() == [("c2", "image source mismatch"), ("c2", "image target mismatch")]
