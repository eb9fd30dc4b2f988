"""The value classes: formula nodes and records keep the constructors, repr
text, equality, hashing and immutability they had as frozen dataclasses,
and importing the package loads neither dataclasses nor hashlib."""

import ast
import copy
import pickle
import subprocess
import sys

import pytest

from awarekit import (
    FALSE,
    And,
    Atom,
    Axiom,
    AxiomId,
    Bounds,
    Cite,
    Countermodel,
    DeDicto,
    DeRe,
    EpistemicModel,
    Falsum,
    FuzzReport,
    FuzzViolation,
    Hyp,
    Implies,
    Know,
    MetaVar,
    MonoD,
    MonoR,
    MP,
    Nec,
    Not,
    Or,
    Point,
    ProofLine,
    ProofScript,
    ValidUpToBounds,
    Violation,
    parse,
)
from awarekit.model import _Skeleton
from awarekit.proof import TheoremEntry

from conftest import REPO

P = Atom("p")
ONE_POINT = EpistemicModel(1, 1, {(0, 0)}, (((0,),),), {"p": {(0, 0)}})

# each class's repr, as the frozen dataclasses printed it
GOLDEN_REPRS = [
    (Atom("p"), "Atom(name='p')"),
    (MetaVar("PHI2"), "MetaVar(name='PHI2')"),
    (Falsum(), "Falsum()"),
    (Not(P), "Not(child=Atom(name='p'))"),
    (Implies(P, FALSE), "Implies(left=Atom(name='p'), right=Falsum())"),
    (And(P, Atom("q")), "And(left=Atom(name='p'), right=Atom(name='q'))"),
    (Or(MetaVar("PSI"), P), "Or(left=MetaVar(name='PSI'), right=Atom(name='p'))"),
    (Know(P), "Know(child=Atom(name='p'))"),
    (DeRe(Not(FALSE)), "DeRe(child=Not(child=Falsum()))"),
    (DeDicto(P), "DeDicto(child=Atom(name='p'))"),
    (Point(1, 0), "Point(world=1, agent=0)"),
    (Violation("partition-count", "expected 2"), "Violation(code='partition-count', message='expected 2')"),
    (Bounds(3, 2, ["p", "q"]), "Bounds(max_worlds=3, max_agents=2, props=('p', 'q'))"),
    (
        ONE_POINT,
        "EpistemicModel(world_count=1, agent_count=1, presence=frozenset({(0, 0)}), "
        "indist=(((0,),),), valuation={'p': frozenset({(0, 0)})})",
    ),
    (
        _Skeleton(2, 1, 3, (((0, 1),),)),
        "_Skeleton(world_count=2, agent_count=1, presence_mask=3, partitions=(((0, 1),),))",
    ),
    (Axiom(AxiomId.TRUTH), "Axiom(axiom=<AxiomId.TRUTH: 'truth'>)"),
    (Hyp(0), "Hyp(index=0)"),
    (MP(0, 1), "MP(antecedent=0, implication=1)"),
    (Nec(2), "Nec(source=2)"),
    (MonoD(3), "MonoD(source=3)"),
    (MonoR(4), "MonoR(source=4)"),
    (Cite("t", {"PHI": P}), "Cite(name='t', substitution={'PHI': Atom(name='p')})"),
    (ProofLine(Know(P), Nec(0)), "ProofLine(formula=Know(child=Atom(name='p')), justification=Nec(source=0))"),
    (
        ProofScript([ProofLine(P, Hyp(0))], [P]),
        "ProofScript(lines=(ProofLine(formula=Atom(name='p'), justification=Hyp(index=0)),), "
        "hypotheses=(Atom(name='p'),))",
    ),
    (
        TheoremEntry("t", MetaVar("PHI"), ProofScript((ProofLine(Implies(P, P), Axiom(AxiomId.TAUT)),))),
        "TheoremEntry(name='t', schema=MetaVar(name='PHI'), proof=ProofScript(lines=(ProofLine("
        "formula=Implies(left=Atom(name='p'), right=Atom(name='p')), "
        "justification=Axiom(axiom=<AxiomId.TAUT: 'taut'>)),), hypotheses=None))",
    ),
    (
        ValidUpToBounds(Bounds(1, 1, ("p",)), 4),
        "ValidUpToBounds(bounds=Bounds(max_worlds=1, max_agents=1, props=('p',)), models_checked=4)",
    ),
    (
        Countermodel(EpistemicModel(1, 1, {(0, 0)}, (((0,),),), {}), Point(0, 0)),
        "Countermodel(model=EpistemicModel(world_count=1, agent_count=1, presence=frozenset({(0, 0)}), "
        "indist=(((0,),),), valuation={}), point=Point(world=0, agent=0))",
    ),
    (
        FuzzViolation(ONE_POINT, Point(0, 0), "truth", {"PHI": P}),
        "FuzzViolation(model=EpistemicModel(world_count=1, agent_count=1, presence=frozenset({(0, 0)}), "
        "indist=(((0,),),), valuation={'p': frozenset({(0, 0)})}), point=Point(world=0, agent=0), "
        "schema_id='truth', substitution={'PHI': Atom(name='p')})",
    ),
    (FuzzReport(1, 10, ()), "FuzzReport(trials=1, schema_instances_checked=10, violations=())"),
]
VALUES = [value for value, _ in GOLDEN_REPRS]
IDS = [type(value).__name__ for value in VALUES]


@pytest.mark.parametrize(("value", "text"), GOLDEN_REPRS, ids=IDS)
def test_repr_is_the_dataclass_text(value, text):
    assert repr(value) == text


def test_every_value_class_is_covered():
    classes = {type(value) for value in VALUES}
    assert len(classes) == len(VALUES) == 29


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_fields_can_be_neither_assigned_nor_deleted(value):
    before = repr(value)
    for name in (*value.__match_args__, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    for name in value.__match_args__:
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == before


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_equal_to_a_rebuilt_copy_and_to_nothing_else(value):
    twin = type(value)(*(getattr(value, name) for name in value.__match_args__))
    assert twin == value and not twin != value
    assert value != object() and value != tuple(getattr(value, n) for n in value.__match_args__)
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


def test_nested_formula_repr_is_the_dataclass_text():
    f = parse("K p -> ~false & PHI | A q")
    assert repr(f) == (
        "Implies(left=Know(child=Atom(name='p')), right=Or(left=And(left=Not(child=Falsum()), "
        "right=MetaVar(name='PHI')), right=Or(left=DeRe(child=Atom(name='q')), "
        "right=DeDicto(child=Atom(name='q')))))"
    )


@pytest.mark.parametrize(
    "link, head",
    [
        ("~", "Not(child="),
        ("K ", "Know(child="),
        ("R ", "DeRe(child="),
        ("D ", "DeDicto(child="),
        ("p -> ", "Implies(left=Atom(name='p'), right="),
    ],
    ids=["not", "K", "R", "D", "implies"],
)
def test_deep_formulas_print_and_copy(link, head):
    f = parse(link * 10_000 + "q")
    assert repr(f) == head * 10_000 + "Atom(name='q')" + ")" * 10_000
    # nodes are immutable, so a copy is the node itself
    assert copy.copy(f) is f and copy.deepcopy(f) is f
    line = ProofLine(f, Axiom(AxiomId.TAUT))
    assert repr(line) == f"ProofLine(formula={f!r}, justification=Axiom(axiom=<AxiomId.TAUT: 'taut'>))"
    twin = copy.deepcopy(line)
    assert twin == line and twin.formula is f
    # a formula pickles as its flat program, so any nesting pickles, alone
    # or inside a record
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(f, protocol)) == f
        assert pickle.loads(pickle.dumps(line, protocol)) == line


@pytest.mark.parametrize(
    "value",
    [ONE_POINT, Cite("t", {"PHI": P}), FuzzViolation(ONE_POINT, Point(0, 0), "truth", {})],
    ids=["EpistemicModel", "Cite", "FuzzViolation"],
)
def test_records_holding_a_dict_do_not_hash(value):
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(value)


def test_hash_follows_the_fields():
    assert hash(Point(1, 2)) == hash(Point(1, 2)) == hash((1, 2))
    assert hash(MP(0, 1)) == hash(MP(0, 1))
    assert {Bounds(2, 2, ["p"]), Bounds(2, 2, ("p",))} == {Bounds(2, 2, ("p",))}


def test_same_fields_of_another_class_are_not_equal():
    assert Nec(0) != MonoD(0) and MonoD(0) != MonoR(0)
    assert Not(P) != Know(P) and DeRe(P) != DeDicto(P)
    assert And(P, P) != Or(P, P) != Implies(P, P)


class TestConstructors:
    def test_keywords_and_positions(self):
        assert Point(agent=1, world=2) == Point(2, 1)
        assert MP(0, implication=3) == MP(0, 3)
        assert Bounds(max_agents=1, props=("p",), max_worlds=2) == Bounds(2, 1, ("p",))
        assert Not(child=P) == Not(P) and Implies(right=P, left=FALSE) == Implies(FALSE, P)

    def test_defaults(self):
        assert ProofScript(()).hypotheses is None
        first, second = Cite("t"), Cite(name="t")
        assert first.substitution == {} and first == second
        assert first.substitution is not second.substitution

    def test_normalisation_after_the_fields_are_set(self):
        model = EpistemicModel(2, 1, [("0", 1), (0, 0)], [[[1], [0, 0]]], {"p": [(0, 1)]})
        assert model.presence == frozenset({(0, 1), (0, 0)})
        assert model.indist == (((0,), (1,)),)
        assert model.valuation == {"p": frozenset({(0, 1)})}
        assert ProofScript([ProofLine(P, Hyp(0))], [P]).lines == (ProofLine(P, Hyp(0)),)

    def test_validation(self):
        with pytest.raises(ValueError, match="reserved word"):
            Atom("K")
        with pytest.raises(ValueError, match="invalid metavariable name"):
            MetaVar("p")
        with pytest.raises(ValueError, match="duplicate-free"):
            Bounds(1, 1, ("p", "p"))

    @pytest.mark.parametrize(
        ("build", "message"),
        [
            (lambda: Point(1), "missing"),
            (lambda: Hyp(), "missing"),
            (lambda: MP(0, 1, 2), "takes 2 arguments"),
            (lambda: MP(0, antecedent=1), "unexpected or repeated"),
            (lambda: Nec(0, line=1), "unexpected or repeated"),
            (lambda: Not(P, P), None),
            (lambda: Falsum(P), None),
        ],
    )
    def test_wrong_arguments(self, build, message):
        with pytest.raises(TypeError, match=message):
            build()

    def test_cached_views_of_a_model(self):
        model = EpistemicModel(2, 2, {(0, 0), (1, 1)}, (((0,),), ((1,),)), {})
        assert list(model.points()) == [Point(0, 0), Point(1, 1)]
        assert model.present_worlds(1) == {1}
        assert model._rows is model._rows

    def test_match_args(self):
        match Implies(P, Know(FALSE)):
            case Implies(Atom(name), Know(Falsum())):
                assert name == "p"
            case _:
                pytest.fail("no match")
        match Point(3, 4):
            case Point(world, agent):
                assert (world, agent) == (3, 4)


def _module_level_imports(path) -> set[str]:
    """The absolute imports at the top level of a source file."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module)
    return names


def test_import_loads_neither_dataclasses_nor_hashlib():
    # a fresh interpreter without site, which loads different modules on
    # each version, first imports the other standard modules the package
    # imports itself, and then the package
    package = REPO / "src" / "awarekit"
    slow = {"dataclasses", "inspect", "hashlib"}
    stdlib = sorted(set().union(*map(_module_level_imports, package.glob("*.py"))) - slow)
    code = (
        "import sys, importlib\n"
        f"sys.path.insert(0, {str(package.parent)!r})\n"
        f"for name in {stdlib!r}: importlib.import_module(name)\n"
        "before = set(sys.modules)\n"
        "import awarekit.cli\n"
        "assert awarekit.cli.__file__.startswith(sys.path[0]), awarekit.cli.__file__\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    loaded = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True, timeout=60
    ).stdout.split()
    assert "awarekit.cli" in loaded
    assert not slow & set(loaded)
