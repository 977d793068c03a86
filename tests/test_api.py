"""The public API, pinned: adding, removing or renaming an exported name
shows up as an edit to this list."""

import ast
import importlib
import inspect
import pkgutil

import chainpoly

PUBLIC_NAMES = [
    "CoxeterType",
    "DomainError",
    "FlagVectors",
    "GradedBoundedPoset",
    "GradedStructureError",
    "InvalidDegreeError",
    "NotRealRootedError",
    "ONE",
    "Poly",
    "Poset",
    "PosetFileError",
    "RealRootedness",
    "ReflectionGroup",
    "ResourceLimitError",
    "SymmetricDecomposition",
    "X",
    "ZERO",
    "adjoin_max",
    "boolean_lattice",
    "build_reflection_group",
    "chain_polynomial",
    "colored_descent_enumerator",
    "colored_descent_enumerator_bruteforce",
    "colored_subset_poset",
    "descent_enumerator",
    "descent_mean_variance",
    "determinant_descent_enumerator",
    "expected_descents",
    "f_from_h",
    "face_poset",
    "first_letter_descent_polynomials",
    "flag_vectors",
    "format_poly",
    "h_from_f",
    "has_nonneg_realrooted_symdec",
    "interlaces",
    "is_interlacing_sequence",
    "is_log_concave",
    "is_real_rooted",
    "is_simplicial",
    "is_symmetric",
    "is_unimodal",
    "load_poset",
    "mode",
    "nc_chain_polynomial",
    "nc_h_formula",
    "nc_reversed_h_identity",
    "noncrossing_lattice",
    "order_h_polynomial",
    "parse_poly",
    "rank_selected",
    "rank_selected_h",
    "real_rootedness",
    "signed_word_columns",
    "signed_word_descent_enumerator",
    "simplicial_h",
    "stanley_flag_beta",
    "symmetric_decomposition",
    "unimodal_peaks",
    "veronese",
    "word_ascent_enumerator",
    "word_descent_enumerator",
]


def test_public_names_are_pinned():
    assert sorted(chainpoly.__all__) == PUBLIC_NAMES


def test_public_names_resolve():
    for name in chainpoly.__all__:
        assert getattr(chainpoly, name) is not None, name


def test_poset_constructors_take_elements_and_covers():
    # every poset is checked at construction; no argument turns that off
    for cls in (chainpoly.Poset, chainpoly.GradedBoundedPoset):
        assert list(inspect.signature(cls).parameters) == ["elements", "covers"]


# every functools memo in the package, so that a new one is a visible change
MEMOS = [
    "chainpoly.coxeter.nc_h_formula",
    "chainpoly.descents._colored_descent_distribution",
    "chainpoly.descents._first_letter_rows",
    "chainpoly.realroots.real_rootedness",
]


def test_memos_are_pinned():
    found = set()
    for info in pkgutil.iter_modules(chainpoly.__path__):
        module = importlib.import_module("chainpoly." + info.name)
        for obj in vars(module).values():
            members = vars(obj).values() if inspect.isclass(obj) else [obj]
            for fn in members:
                if hasattr(fn, "cache_info") and fn.__module__ == module.__name__:
                    found.add("%s.%s" % (fn.__module__, fn.__qualname__))
    assert sorted(found) == MEMOS


def test_coxeter_imports_no_certification():
    # coxeter only enumerates and transforms; certifying is left to callers
    coxeter = importlib.import_module("chainpoly.coxeter")
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(coxeter))):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    modules = {name.rpartition(".")[2] for name in imported}
    assert not modules & {"realroots", "symdecomp"}
