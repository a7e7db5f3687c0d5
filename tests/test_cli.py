import json
import math
from pathlib import Path

import pytest

from rtspan.cli import generate_graph, main
from rtspan.graph import parse_edge_list
from rtspan.verify import _scc_labels


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


class TestGen:
    def test_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for p in (a, b):
            code, _, _ = run(capsys, "gen", "--n", "12", "--m", "40",
                             "--seed", "9", "--output", str(p))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_output(self, capsys):
        _, out1, _ = run(capsys, "gen", "--n", "12", "--m", "40", "--seed", "1")
        _, out2, _ = run(capsys, "gen", "--n", "12", "--m", "40", "--seed", "2")
        assert out1 != out2

    def test_strongly_connected_flag(self, capsys):
        code, out, _ = run(capsys, "gen", "--n", "15", "--m", "30",
                           "--strongly-connected")
        assert code == 0
        g = parse_edge_list(out)
        assert (g.n, g.m) == (15, 30)
        assert set(_scc_labels(g, math.inf)) == {0}

    def test_too_many_edges_rejected(self, capsys):
        code, _, err = run(capsys, "gen", "--n", "3", "--m", "7")
        assert code == 2 and err.startswith("error:")

    def test_json_stats_embeds_graph(self, capsys):
        code, out, _ = run(capsys, "gen", "--n", "6", "--m", "10",
                           "--seed", "4", "--format", "json-stats")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "rtspan.stats.v3"
        assert doc["seed"] == 4
        g = parse_edge_list(doc["edge_list"])
        assert (g.n, g.m) == (6, 10)

    def test_weight_grid_respected(self, capsys):
        _, out, _ = run(capsys, "gen", "--n", "8", "--m", "20",
                        "--quantum", "0.25", "--w-min", "1", "--w-max", "3")
        g = parse_edge_list(out)
        assert all(1.0 <= w <= 3.0 and (w / 0.25).is_integer()
                   for _, _, w in g.edges)


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.txt"
    import random
    g = generate_graph(14, 50, random.Random("cli-fixture"),
                       strongly_connected=True)
    from rtspan.graph import write_edge_list
    path.write_text(write_edge_list(g))
    return path


class TestSpanner:
    def test_verified_build(self, graph_file, tmp_path, capsys):
        out = tmp_path / "h.txt"
        code, _, _ = run(capsys, "spanner", "--input", str(graph_file),
                         "--sources", "3", "--seed", "5", "--verify",
                         "--output", str(out))
        assert code == 0
        g = parse_edge_list(graph_file.read_text())
        h = parse_edge_list(out.read_text())
        assert h.n == g.n
        pool = list(g.edges)
        for e in h.edges:
            assert e in pool
            pool.remove(e)
        stats = json.loads((tmp_path / "h.txt.stats.json").read_text())
        assert stats["schema"] == "rtspan.stats.v3"
        assert stats["stretch"]["passed"] is True
        assert stats["total_edges"] == h.m
        assert stats["sources_resolved"] == sorted(stats["sources_resolved"])

    def test_deterministic_bytes(self, graph_file, tmp_path, capsys):
        outs = []
        for name in ("x.txt", "y.txt"):
            out = tmp_path / name
            code, _, _ = run(capsys, "spanner", "--input", str(graph_file),
                             "--sources", "2", "--seed", "7",
                             "--output", str(out))
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_json_stats_to_stdout(self, graph_file, capsys):
        code, out, _ = run(capsys, "spanner", "--input", str(graph_file),
                           "--sources", "2", "--verify", "--format", "json-stats")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "spanner" and "stretch" in doc

    def test_weighted_variant_runs(self, graph_file, capsys):
        code, out, _ = run(capsys, "spanner", "--input", str(graph_file),
                           "--sources", "2", "--weighted-variant", "--verify",
                           "--format", "json-stats")
        assert code == 0
        assert json.loads(out)["mode"] == "weighted"

    def test_weighted_variant_rescales_weights_below_one(self, tmp_path, capsys):
        import random
        from rtspan.graph import write_edge_list
        g = generate_graph(14, 50, random.Random("cli-small-weights"), w_min=0.125,
                           w_max=0.875, strongly_connected=True)
        path = tmp_path / "small.txt"
        path.write_text(write_edge_list(g))
        code, out, _ = run(capsys, "spanner", "--input", str(path),
                           "--sources", "3", "--weighted-variant", "--verify",
                           "--format", "json-stats")
        assert code == 0
        doc = json.loads(out)
        assert doc["weight_scale"] == 8.0
        assert doc["stretch"]["passed"] is True

    def test_sources_file(self, graph_file, tmp_path, capsys):
        src = tmp_path / "src.txt"
        src.write_text("3 0\n11\n")
        code, out, _ = run(capsys, "spanner", "--input", str(graph_file),
                           "--sources", str(src), "--format", "json-stats")
        assert code == 0
        assert json.loads(out)["sources_resolved"] == [0, 3, 11]

    def test_source_count_out_of_range(self, graph_file, capsys):
        code, _, err = run(capsys, "spanner", "--input", str(graph_file),
                           "--sources", "99")
        assert code == 2 and "sources" in err


class TestCover:
    def test_verified_cover(self, graph_file, tmp_path, capsys):
        out = tmp_path / "c.txt"
        code, _, _ = run(capsys, "cover", "--input", str(graph_file),
                         "--sources", "3", "--radius", "2.0", "--verify",
                         "--output", str(out))
        assert code == 0
        g = parse_edge_list(graph_file.read_text())
        h = parse_edge_list(out.read_text())
        assert h.n == g.n
        stats = json.loads((tmp_path / "c.txt.stats.json").read_text())
        assert stats["cover_check"]["passed"] is True
        assert stats["failure_parts"] == []
        assert stats["max_vertex_ball_count"] <= stats["trials"]
        assert all(b["size"] >= 1 for b in stats["balls"])

    @pytest.mark.parametrize("radius", ["nan", "inf", "1e308"])
    def test_non_finite_radius_exits_2(self, graph_file, capsys, radius):
        code, out, err = run(capsys, "cover", "--input", str(graph_file),
                             "--sources", "3", "--radius", radius, "--verify")
        assert code == 2 and out == "" and "R must" in err

    def test_trials_mult_plumbs_through(self, graph_file, capsys):
        def trials(mult):
            _, out, _ = run(capsys, "cover", "--input", str(graph_file),
                            "--sources", "2", "--radius", "1.0",
                            "--trials-mult", mult, "--format", "json-stats")
            return json.loads(out)["trials"]
        assert trials("2") == 2 * trials("1")


class TestPartition:
    def test_no_centers(self, graph_file, capsys):
        code, out, _ = run(capsys, "partition", "--input", str(graph_file),
                           "--radius", "2.0", "--s", "4", "--centers", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["clusters"] == []
        assert doc["residual"] == list(range(14))

    def test_centers_file(self, graph_file, tmp_path, capsys):
        cf = tmp_path / "centers.txt"
        cf.write_text("2 5 9\n")
        code, out, _ = run(capsys, "partition", "--input", str(graph_file),
                           "--radius", "2.0", "--s", "4", "--centers", str(cf),
                           "--direction", "in")
        assert code == 0
        doc = json.loads(out)
        assert doc["centers_resolved"] == [2, 5, 9]
        assert {c["center"] for c in doc["clusters"]} <= {2, 5, 9}
        claimed = [v for c in doc["clusters"] for v in c["members"]]
        assert sorted(claimed + doc["residual"]) == list(range(14))


    @pytest.mark.parametrize("radius", ["nan", "inf"])
    def test_non_finite_radius_exits_2(self, graph_file, capsys, radius):
        code, out, err = run(capsys, "partition", "--input", str(graph_file),
                             "--radius", radius, "--s", "4", "--centers", "3")
        assert code == 2 and out == "" and "r must" in err


class TestVerify:
    def test_identity_spanner_passes(self, graph_file, capsys):
        code, out, _ = run(capsys, "verify", "--input", str(graph_file),
                           "--spanner", str(graph_file), "--sources", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["stretch"]["worst_ratio"] == 1.0
        assert doc["stretch"]["passed"] is True

    def test_broken_spanner_fails(self, tmp_path, capsys):
        g = tmp_path / "g.txt"
        h = tmp_path / "h.txt"
        g.write_text("2 2\n0 1 1.0\n1 0 1.0\n")
        h.write_text("2 1\n0 1 1.0\n")
        code, out, _ = run(capsys, "verify", "--input", str(g),
                           "--spanner", str(h), "--sources", "2")
        assert code == 1
        doc = json.loads(out)
        # both endpoints are sources, so the broken pair is seen from each side
        assert doc["stretch"]["infinite_violations"] == 2

    def test_vertex_count_mismatch(self, tmp_path, capsys):
        g = tmp_path / "g.txt"
        h = tmp_path / "h.txt"
        g.write_text("2 2\n0 1 1.0\n1 0 1.0\n")
        h.write_text("3 2\n0 1 1.0\n1 0 1.0\n")
        code, _, err = run(capsys, "verify", "--input", str(g),
                           "--spanner", str(h), "--sources", "2")
        assert code == 2 and "vertex count" in err

    def test_foreign_edge_rejected(self, tmp_path, capsys):
        g = tmp_path / "g.txt"
        h = tmp_path / "h.txt"
        g.write_text("2 2\n0 1 1.0\n1 0 1.0\n")
        h.write_text("2 1\n0 1 1.5\n")
        code, _, err = run(capsys, "verify", "--input", str(g),
                           "--spanner", str(h), "--sources", "2")
        assert code == 2 and "not an input edge" in err

    def test_bound_override(self, graph_file, capsys):
        # identity spanner still fails a sub-1 bound, proving the override lands
        code, out, _ = run(capsys, "verify", "--input", str(graph_file),
                           "--spanner", str(graph_file), "--sources", "2",
                           "--bound", "0.5")
        assert code == 1
        assert json.loads(out)["stretch"]["bound"] == 0.5


    @pytest.mark.parametrize("flags", [["--c", "-3"], ["--c", "0"], ["--c", "0", "--bound", "5"],
                                       ["--k", "1", "--bound", "5"]])
    def test_bad_k_or_c_exits_2(self, graph_file, capsys, flags):
        # --c -3 used to report a negative bound and exit 1, and --c 0 passed
        code, out, err = run(capsys, "verify", "--input", str(graph_file),
                             "--spanner", str(graph_file), "--sources", "2", *flags)
        assert code == 2 and out == "" and ("c must" in err or "k must" in err)

    def test_nan_bound_exits_2(self, graph_file, capsys):
        code, out, err = run(capsys, "verify", "--input", str(graph_file),
                             "--spanner", str(graph_file), "--sources", "2",
                             "--bound", "nan")
        assert code == 2 and out == "" and "bound" in err


class TestGoldenOutput:
    """The json-stats documents of a seeded gen graph, byte for byte.  A
    drifted default (c, epsilon, trials) or a changed rng stream shows up
    here even where every structural check still passes."""

    GOLDEN = Path(__file__).parent / "golden"

    @pytest.fixture
    def gen_file(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        code, _, _ = run(capsys, "gen", "--n", "12", "--m", "18", "--seed", "11",
                         "--strongly-connected", "--w-max", "64", "--quantum", "1",
                         "--output", str(path))
        assert code == 0
        return path

    def test_spanner_json_stats(self, gen_file, capsys):
        code, out, _ = run(capsys, "spanner", "--input", str(gen_file),
                           "--sources", "3", "--seed", "5", "--verify",
                           "--format", "json-stats")
        assert code == 0
        assert out == (self.GOLDEN / "cli_spanner.json").read_text()

    def test_epsilon_changes_spanner_document(self, gen_file, capsys):
        # the spanner's balls can come out equal under another epsilon, so
        # the document must carry the constants to tell the runs apart
        argv = ["spanner", "--input", str(gen_file), "--sources", "3", "--seed", "5",
                "--format", "json-stats"]
        _, default, _ = run(capsys, *argv)
        code, out, _ = run(capsys, *argv, "--epsilon", "0.25")
        assert code == 0
        assert json.loads(out)["epsilon"] == 0.25
        assert out != default

    def test_cover_json_stats(self, gen_file, capsys):
        # radius 1 gives a root core of 1 of the 12 vertices, which every
        # trial carves (the partition runs at radius 0.5 and below)
        code, out, _ = run(capsys, "cover", "--input", str(gen_file),
                           "--sources", "3", "--radius", "1", "--seed", "5",
                           "--verify", "--format", "json-stats")
        assert code == 0
        assert out == (self.GOLDEN / "cli_cover.json").read_text()


class TestParsing:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_malformed_input_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a header\n")
        code, _, err = run(capsys, "spanner", "--input", str(bad),
                           "--sources", "1")
        assert code == 2 and err.startswith("error:")

    def test_missing_input_file(self, capsys):
        code, _, err = run(capsys, "spanner", "--input", "/nonexistent/x.txt",
                           "--sources", "1")
        assert code == 2 and err.startswith("error:")
