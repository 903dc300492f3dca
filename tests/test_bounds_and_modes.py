"""Bound handling, float-mode flags, JSON round trips."""

import inspect
import json
import random
from fractions import Fraction as F

import pytest

import recat.balls as balls
import recat.cat as cat
import recat.classify as cl
import recat.cli as cli
import recat.poset as ps
import recat.presheaf as psh
import recat.tnorm as tn
import recat.values as vals
from recat import fixtures, gen
from recat.errors import BoundExceededError


class TestBounds:
    def test_hom_category_bound(self):
        g5 = fixtures.g5()
        with pytest.raises(BoundExceededError):
            cat.hom_category(g5, g5, bound=10)

    def test_weight_enumeration_bound(self):
        with pytest.raises(BoundExceededError):
            psh.enumerate_weights(fixtures.g5(), bound=10)

    def test_way_below_bound(self):
        """The way-below distributor is the hom, with no bound: 5 ** 9 grid vectors,
        past the ideal search's 10 ** 6, and no grid at all are both answered."""
        assert "bound" not in inspect.signature(balls.way_below_distributor).parameters
        n = 9
        hom = tuple(tuple(F(int(a == b)) for b in range(n)) for a in range(n))
        for grid in (vals.unit_grid(4, tn.lukasiewicz), None):
            X = cat.EnrichedCategory(tn.lukasiewicz, hom, (), grid)
            assert balls.way_below_distributor(X).rows == hom
            assert balls.interpolation_check(X) and balls.is_continuous_enriched(X)

    def test_cli_bound_exit_code(self, tmp_path, capsys):
        """`recat complete` takes no --bound: passing one is a usage error."""
        p = tmp_path / "g5.json"
        p.write_text(json.dumps(fixtures.g5().to_json()))
        code = cli.main(["complete", str(p), "--bound", "10"])
        out = json.loads(capsys.readouterr().out)
        assert code == 2 and "unrecognized arguments: --bound 10" in out["error"]
        assert cli.main(["complete", str(p)]) == 0
        capsys.readouterr()

    def test_cli_float_suite_needs_grid(self, capsys):
        code = cli.main(["laws", "kz", "--tnorm", "product"])
        capsys.readouterr()
        assert code == 1

    def test_cli_product_tnorm_suite_runs(self, capsys):
        code = cli.main(["laws", "tnorm", "--tnorm", "product", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0 and json.loads(out)["pass"]


class TestFloatMode:
    def _float_cat(self):
        return cat.EnrichedCategory(
            tn.product, ((1.0, 0.5, 0.25), (0.125, 1.0, 0.5), (0.0625, 0.125, 1.0))
        )

    def test_validate_and_order(self):
        X = self._float_cat()
        assert cat.validate(X).ok
        P = cat.underlying_order(X)
        assert P.antisymmetric

    def test_conically_flat_flagged_approximate(self):
        X = self._float_cat()
        phi = psh.Weight(X, (1.0, 0.5, 0.25))
        ok, wit, exact = cl.is_conically_flat(phi)
        assert not exact

    def test_classifiers_work_in_float(self):
        X = self._float_cat()
        phi = psh.yoneda(X, 1)
        assert cl.is_representable(phi) == 1
        assert cl.is_cauchy(phi) is not None
        assert cl.is_ideal(phi)[0]

    def test_classify_conically_flat_weight(self):
        rep = cl.classify(psh.yoneda(self._float_cat(), 1))
        assert all(rep.flags.values()) and rep.exhaustive is False

    def test_exact_ops_refuse_float(self):
        X = self._float_cat()
        with pytest.raises(Exception):
            cl.cauchy_completion(X)
        with pytest.raises(Exception):
            balls.directed_join(X, [(0, 0.5)])


class TestJsonRoundTrips:
    def test_category(self):
        A2 = fixtures.a2()
        assert cat.EnrichedCategory.from_json(A2.to_json()).hom == A2.hom

    def test_float_category(self):
        X = cat.EnrichedCategory(tn.product, ((1.0, 0.5), (0.25, 1.0)))
        back = cat.EnrichedCategory.from_json(json.loads(json.dumps(X.to_json())))
        assert back.hom == X.hom and back.mode == "float"

    def test_poset(self):
        L = ps.m3()
        assert ps.FinitePoset.from_json(L.to_json()).leq == L.leq


class TestColimWitnesses:
    def test_all_witnesses_isomorphic(self):
        rng = random.Random(0)
        grid = vals.unit_grid(3, tn.lukasiewicz)
        for _ in range(30):
            X = gen.random_category(rng, 3, grid)
            phi = gen.random_weight(rng, X)
            ub = psh.isbell_ub(phi)
            witnesses = [
                c
                for c in range(X.n)
                if all(X.hom[c][y] == ub(y) for y in range(X.n))
            ]
            got = psh.colim(phi)
            if witnesses:
                assert got == witnesses[0]  # least index
                for c in witnesses:
                    assert X.leq1(X.hom[c][witnesses[0]]) and X.leq1(X.hom[witnesses[0]][c])
            else:
                assert got is None
