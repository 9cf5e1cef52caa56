"""Tests for the synthetic workload generators and paper queries."""

import pytest

from repro.errors import DocumentError, PatternError
from repro.workloads import (PAPER_QUERIES, PATTERN_SHAPES, build_shape,
                             dataset_document, dblp_document,
                             fold_document, mbench_document, paper_query,
                             pattern_for, personnel_document)


class TestGeneratorsDeterministic:
    @pytest.mark.parametrize("generator,kwargs", [
        (personnel_document, {"target_nodes": 300, "seed": 1}),
        (dblp_document, {"entries": 50, "seed": 2}),
        (mbench_document, {"target_nodes": 300, "seed": 3}),
    ])
    def test_same_seed_same_document(self, generator, kwargs):
        first = generator(**kwargs)
        second = generator(**kwargs)
        assert len(first) == len(second)
        assert [n.tag for n in first] == [n.tag for n in second]
        assert [n.region for n in first] == [n.region for n in second]

    def test_different_seed_different_document(self):
        first = personnel_document(target_nodes=300, seed=1)
        second = personnel_document(target_nodes=300, seed=2)
        assert [n.tag for n in first] != [n.tag for n in second]


class TestPersonnel:
    def test_size_near_target(self):
        document = personnel_document(target_nodes=500, seed=4)
        assert 500 <= len(document) <= 560

    def test_structure(self):
        document = personnel_document(target_nodes=500, seed=4)
        assert document.root.tag == "company"
        assert document.tag_count("manager") > 5
        # recursive managers exist
        managers = document.nodes_with_tag("manager")
        assert any(outer.is_ancestor_of(inner)
                   for outer in managers[:10] for inner in managers)
        # every employee has a name child
        for employee in document.nodes_with_tag("employee")[:20]:
            children = document.children(employee)
            assert any(child.tag == "name" for child in children)


class TestDblp:
    def test_shallow_and_wide(self):
        document = dblp_document(entries=100, seed=5)
        assert document.depth() == 3
        assert document.tag_count("title") == 100
        entries = (document.tag_count("article")
                   + document.tag_count("inproceedings")
                   + document.tag_count("book"))
        assert entries == 100

    def test_articles_dominate(self):
        document = dblp_document(entries=300, seed=6)
        assert document.tag_count("article") > document.tag_count("book")

    def test_year_attribute_and_element_agree(self):
        document = dblp_document(entries=30, seed=7)
        for article in document.nodes_with_tag("article")[:10]:
            years = [child.text for child in document.children(article)
                     if child.tag == "year"]
            assert years == [article.attributes["year"]]


class TestMbench:
    def test_deep_recursion(self):
        document = mbench_document(target_nodes=800, seed=8)
        assert document.depth() >= 6
        assert document.tag_count("eNest") > 500

    def test_attributes(self):
        document = mbench_document(target_nodes=200, seed=9)
        for node in document.nodes_with_tag("eNest")[:20]:
            assert int(node.attributes["aFour"]) in range(4)
            assert int(node.attributes["aSixteen"]) in range(16)
            assert int(node.attributes["aLevel"]) >= 1

    def test_occasional_elements_present(self):
        document = mbench_document(target_nodes=800, seed=8)
        assert document.tag_count("eOccasional") > 0


class TestFolding:
    def test_factor_one_is_identity(self, small_document):
        assert fold_document(small_document, 1) is small_document

    def test_factor_scales_counts_linearly(self, small_document):
        folded = fold_document(small_document, 4)
        assert len(folded) == 4 * len(small_document) + 1
        for tag in ("manager", "employee", "name"):
            assert folded.tag_count(tag) == 4 * small_document.tag_count(
                tag)

    def test_join_results_scale_linearly(self, small_document):
        from tests.conftest import pair_count

        base, scaled = (pair_count(document, "manager", "employee")
                        for document in (small_document,
                                         fold_document(small_document, 3)))
        assert scaled == 3 * base

    def test_invalid_factor(self, small_document):
        with pytest.raises(DocumentError):
            fold_document(small_document, 0)


class TestPaperQueries:
    def test_eight_queries_defined(self):
        assert len(PAPER_QUERIES) == 8
        assert set(PAPER_QUERIES) == {
            "Q.Mbench.1.a", "Q.Mbench.2.b", "Q.DBLP.1.b", "Q.DBLP.2.c",
            "Q.Pers.1.a", "Q.Pers.2.c", "Q.Pers.3.d", "Q.Pers.4.d"}

    def test_shapes_have_documented_sizes(self):
        sizes = {shape: len(edges) + 1
                 for shape, edges in PATTERN_SHAPES.items()}
        assert sizes == {"a": 4, "b": 5, "c": 6, "d": 7}

    def test_query_patterns_match_their_shape(self):
        for query in PAPER_QUERIES.values():
            assert len(query.pattern) == len(
                PATTERN_SHAPES[query.shape]) + 1

    def test_queries_return_results_on_their_dataset(self):
        from repro.api import Database

        for name in ("Q.Pers.1.a", "Q.Pers.2.c"):
            query = paper_query(name)
            database = Database.from_document(
                dataset_document(query.dataset, target_nodes=400))
            assert len(database.query(query.pattern)) > 0

    def test_mbench_queries_on_mbench(self):
        from repro.api import Database

        database = Database.from_document(
            mbench_document(target_nodes=800, seed=8))
        for name in ("Q.Mbench.1.a", "Q.Mbench.2.b"):
            result = database.query(pattern_for(name))
            assert result.execution is not None

    def test_dblp_queries_on_dblp(self):
        from repro.api import Database

        database = Database.from_document(dblp_document(entries=120))
        for name in ("Q.DBLP.1.b", "Q.DBLP.2.c"):
            assert len(database.query(pattern_for(name))) > 0

    def test_unknown_query_rejected(self):
        with pytest.raises(PatternError, match="unknown paper query"):
            paper_query("Q.Nope.9.z")

    def test_build_shape_validation(self):
        with pytest.raises(PatternError, match="unknown pattern shape"):
            build_shape("z", ["a"], [])
        with pytest.raises(PatternError, match="needs 4 nodes"):
            build_shape("a", ["a", "b"], ["/", "/", "/"])
        with pytest.raises(PatternError, match="needs 3 axes"):
            build_shape("a", ["a", "b", "c", "d"], ["/"])

    def test_dataset_document_dispatch(self):
        assert dataset_document("dblp", entries=10).root.tag == "dblp"
        with pytest.raises(PatternError, match="unknown dataset"):
            dataset_document("oracle")
