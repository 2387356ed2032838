"""Each shared table has one owner module.

The walk through the first block of 30030 and the block patterns built
from it belong to ``records.py``: no other module names ``_WALK`` or
``_PATTERNS`` or imports ``bisect``, every count of records goes through
``records.record_count``, and ``records.py`` runs no primality test.  The table of primes and primorials
belongs to ``primes.py``: no other module assigns ``_PRIMES`` or
``_PRIMORIALS``.  The primorial checks read the records and never the
generation engine: ``primorial.py`` neither imports ``sequence`` nor names
``generate_prefix`` or ``SequenceBuffer``.  Nor does ``cycles.py``: the
cycles come from the classify certificate, the head from
``classify.prefix_terms`` and the record blocks from the proven records.
``classify.py`` runs the engine only on its window past the seed, from a
``SequenceBuffer`` it resumes there: it never names ``generate_prefix``.  The CLI has one term source,
``classify.prefix_terms``: ``cli.py`` names neither the engine
(``generate_prefix``, ``SequenceBuffer``) nor ``f3_terms``.  The term cap
belongs to ``sequence.py``: no other module names ``max_terms_cap`` or
builds a ``LimitExceededError``; they call ``check_cap``.  The primorial
band table belongs to ``classify._bands``: no other function names its
memo ``_BANDS``, and only ``exceptional_seed_density``, which sums by k and
not by a limit, names ``primorial`` besides it.  The library reads the
records as the array of ``records.cached_records`` and the turning points
from ``records._turning_points``, and its prime flags at the records by
``records._gather``: ``suites.py`` and ``primorial.py`` name neither
``itemgetter`` nor ``__getitem__``.  No module calls the list wrappers
``record_values``, ``find_turning_points``, ``record_stream_upto`` or
``kappa_bounds``, and only ``record_stream_upto`` calls
``records_from_values``.
"""

import ast
from pathlib import Path

import gcdperm

SOURCES = sorted(Path(gcdperm.__file__).parent.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names(tree):
    """Every identifier the code uses, imports or reads as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module:
                yield node.module
            for alias in node.names:
                yield alias.name


def _assigned(tree):
    """Every module or local name bound by an assignment."""
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name):
                    yield sub.id


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"records.py", "primes.py", "cycles.py", "primorial.py"}


def test_only_records_reads_the_record_walk():
    offenders = [
        p.name for p in SOURCES if p.name != "records.py"
        and {"bisect", "_WALK", "_PATTERNS"} & set(_names(_tree(p)))
    ]
    assert offenders == []


def test_only_records_gathers_the_sieve_at_the_records():
    # cor1 and the fig3/fig4 series read their prime flags by records._gather.
    offenders = [
        p.name for p in SOURCES if p.name in ("suites.py", "primorial.py")
        and {"itemgetter", "__getitem__"} & set(_names(_tree(p)))
    ]
    assert offenders == []


def test_records_runs_no_primality_test():
    path = next(p for p in SOURCES if p.name == "records.py")
    assert "is_prime" not in set(_names(_tree(path)))


def test_only_primes_holds_a_prime_table():
    offenders = [
        p.name for p in SOURCES if p.name != "primes.py"
        and {"_PRIMES", "_PRIMORIALS"} & set(_assigned(_tree(p)))
    ]
    assert offenders == []


def test_primorial_checks_do_not_simulate():
    path = next(p for p in SOURCES if p.name == "primorial.py")
    assert {"sequence", "generate_prefix", "SequenceBuffer"} & set(_names(_tree(path))) == set()


def test_cycles_read_the_certificate_and_do_not_simulate():
    path = next(p for p in SOURCES if p.name == "cycles.py")
    assert {"sequence", "generate_prefix", "SequenceBuffer"} & set(_names(_tree(path))) == set()


def test_classify_builds_no_prefix_with_the_engine():
    path = next(p for p in SOURCES if p.name == "classify.py")
    assert "generate_prefix" not in set(_names(_tree(path)))


def test_cli_has_one_term_source():
    path = next(p for p in SOURCES if p.name == "cli.py")
    names = set(_names(_tree(path)))
    assert "prefix_terms" in names
    assert {"generate_prefix", "SequenceBuffer", "f3_terms"} & names == set()


def _calls(tree, name):
    """The calls in tree of a function or class named name."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def test_only_sequence_owns_the_term_cap():
    offenders = [
        p.name for p in SOURCES if p.name != "sequence.py"
        and ("max_terms_cap" in set(_names(_tree(p))) or _calls(_tree(p), "LimitExceededError"))
    ]
    assert offenders == []


def test_only_bands_walks_the_band_table():
    path = next(p for p in SOURCES if p.name == "classify.py")
    walkers = {
        node.name: {"_BANDS", "primorial"} & set(_names(node))
        for node in ast.walk(_tree(path)) if isinstance(node, ast.FunctionDef)
    }
    assert {name for name, found in walkers.items() if found} == {
        "_bands", "exceptional_seed_density"}
    assert walkers["exceptional_seed_density"] == {"primorial"}


def test_library_reads_the_record_array_and_the_one_scanner():
    # The list wrappers stay for the public API; the library reads
    # records.cached_records and records._turning_points.  Only
    # record_stream_upto annotates through records_from_values.
    wrappers = ("record_values", "find_turning_points", "record_stream_upto", "kappa_bounds")
    offenders = [(p.name, name) for p in SOURCES for name in wrappers if _calls(_tree(p), name)]
    assert offenders == []
    annotators = {
        (p.name, node.name) for p in SOURCES for node in ast.walk(_tree(p))
        if isinstance(node, ast.FunctionDef) and _calls(node, "records_from_values")
    }
    assert annotators == {("records.py", "record_stream_upto")}
