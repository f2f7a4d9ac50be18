"""Tests for the command-line interface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.graph import read_metis, read_partition, write_metis, load_npz
from repro.generators import rgg
from repro.metrics import edge_cut


@pytest.fixture
def metis_graph(tmp_path):
    path = tmp_path / "g.metis"
    write_metis(rgg(9, seed=0), path)
    return path


class TestPartitionCommand:
    def test_partition_writes_valid_file(self, metis_graph, tmp_path, capsys):
        out = tmp_path / "g.part"
        code = main(["partition", str(metis_graph), "-k", "4", "-o", str(out)])
        assert code == 0
        partition = read_partition(out)
        graph = read_metis(metis_graph)
        assert partition.shape == (graph.num_nodes,)
        assert int(partition.max()) < 4
        captured = capsys.readouterr().out
        assert "cut=" in captured

    def test_parallel_partition(self, metis_graph, capsys):
        code = main(["partition", str(metis_graph), "-k", "2",
                     "--num-pes", "2", "--machine", "B"])
        assert code == 0
        assert "simulated time" in capsys.readouterr().out

    def test_feature_flags(self, metis_graph, tmp_path, capsys):
        # warm start from a previous partition, with flows and W-cycles on
        warm = tmp_path / "warm.part"
        assert main(["partition", str(metis_graph), "-k", "2",
                     "--preset", "minimal", "-o", str(warm)]) == 0
        code = main(["partition", str(metis_graph), "-k", "2",
                     "--preset", "minimal", "--flows", "--cycle", "W",
                     "--initial-partition", str(warm)])
        assert code == 0
        assert "cut=" in capsys.readouterr().out


class TestGenerateCommand:
    def test_generate_family(self, tmp_path):
        out = tmp_path / "del10.metis"
        assert main(["generate", "del", "--exponent", "10", "-o", str(out)]) == 0
        graph = read_metis(out)
        assert graph.num_nodes == 1024

    def test_generate_registry_instance(self, tmp_path):
        out = tmp_path / "amazon.npz"
        assert main(["generate", "amazon", "-o", str(out)]) == 0
        assert load_npz(out).num_nodes >= 1000

    def test_generate_web(self, tmp_path):
        out = tmp_path / "web.metis"
        assert main(["generate", "web", "--nodes", "512", "-o", str(out)]) == 0
        assert read_metis(out).num_nodes == 512

    def test_generate_grid(self, tmp_path):
        out = tmp_path / "grid.metis"
        assert main(["generate", "grid", "--nodes", "100", "-o", str(out)]) == 0
        assert read_metis(out).num_nodes == 100


class TestEvaluateCommand:
    def test_evaluate_round_trip(self, metis_graph, tmp_path, capsys):
        graph = read_metis(metis_graph)
        partition = np.arange(graph.num_nodes) % 3
        part_file = tmp_path / "p.txt"
        np.savetxt(part_file, partition, fmt="%d")
        assert main(["evaluate", str(metis_graph), str(part_file)]) == 0
        out = capsys.readouterr().out
        assert f"cut={edge_cut(graph, partition)}" in out
        assert "k=3" in out


class TestClusterCommand:
    def test_cluster_writes_labels(self, metis_graph, tmp_path, capsys):
        out = tmp_path / "c.txt"
        assert main(["cluster", str(metis_graph), "-o", str(out)]) == 0
        labels = read_partition(out)
        graph = read_metis(metis_graph)
        assert labels.shape == (graph.num_nodes,)
        assert "modularity=" in capsys.readouterr().out


class TestInstancesCommand:
    def test_lists_registry(self, capsys):
        assert main(["instances"]) == 0
        out = capsys.readouterr().out
        assert "uk-2007" in out and "rgg26" in out


class TestMissingInput:
    """A missing input file is one line on stderr and exit code 2."""

    @pytest.mark.parametrize("argv", [
        ["analyze", "{missing}"],
        ["report", "{missing}"],
        ["partition", "{missing}", "-k", "2"],
        ["evaluate", "{missing}", "{missing}"],
    ])
    def test_missing_file(self, argv, tmp_path, capsys):
        missing = str(tmp_path / "nope.metis")
        code = main([arg.format(missing=missing) for arg in argv])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"repro: error: {missing}: No such file or directory\n"
        )
        assert "Traceback" not in captured.out

    def test_missing_initial_partition(self, metis_graph, tmp_path, capsys):
        missing = str(tmp_path / "warm.part")
        code = main(["partition", str(metis_graph), "-k", "2",
                     "--initial-partition", missing])
        assert code == 2
        assert capsys.readouterr().err == (
            f"repro: error: {missing}: No such file or directory\n"
        )

    def test_missing_compare_baseline(self, metis_graph, tmp_path, capsys):
        trace = tmp_path / "t.json"
        assert main(["partition", str(metis_graph), "-k", "2",
                     "--trace", str(trace)]) == 0
        missing = str(tmp_path / "base.run.json")
        code = main(["analyze", str(tmp_path / "t.events.jsonl"),
                     "--compare", missing])
        assert code == 2
        assert capsys.readouterr().err.endswith(
            f"repro: error: {missing}: No such file or directory\n"
        )

class TestMalformedInput:
    """A malformed input file is one line naming path and line, exit 2."""

    @pytest.fixture
    def bad_metis(self, tmp_path):
        path = tmp_path / "bad.metis"
        path.write_text("3 2 001\n2 5\n1 5 3\n2\n")
        return path

    @pytest.fixture
    def bad_partition(self, tmp_path):
        path = tmp_path / "bad.part"
        path.write_text("0\n1\nx\n")
        return path

    def test_partition(self, bad_metis, capsys):
        code = main(["partition", str(bad_metis), "-k", "2"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"repro: error: {bad_metis}: line 3: "
            "odd number of neighbour/weight tokens\n"
        )
        assert "Traceback" not in captured.out

    def test_evaluate_graph(self, bad_metis, bad_partition, capsys):
        assert main(["evaluate", str(bad_metis), str(bad_partition)]) == 2
        assert capsys.readouterr().err.startswith(f"repro: error: {bad_metis}: line 3: ")

    def test_evaluate_partition(self, metis_graph, bad_partition, capsys):
        assert main(["evaluate", str(metis_graph), str(bad_partition)]) == 2
        assert capsys.readouterr().err == (
            f"repro: error: {bad_partition}: line 3: 'x' is not an integer\n"
        )

    def test_initial_partition(self, metis_graph, bad_partition, capsys):
        code = main(["partition", str(metis_graph), "-k", "2",
                     "--initial-partition", str(bad_partition)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"repro: error: {bad_partition}: line 3: 'x' is not an integer\n"
        )
