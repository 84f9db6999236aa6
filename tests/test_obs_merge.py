"""Cross-rank trace aggregation: shards, clock alignment, merged trace.

A 2-rank distributed run with ``shard_dir`` set must leave one
observation shard per rank (spans + clock handshake + comm log +
latency sketch) and a merged Chrome trace that conserves spans, keeps
one lane group per rank, stays monotone after clock alignment, and
realizes the wire messages as flow (comm) edges.
"""

import json

import pytest

from repro.matrix import BandTLRMatrix
from repro.obs import LogHistogram, MergeReport, load_shards, merge_shards
from repro.runtime import execute_graph_distributed, graph_for_matrix


def _graph_for(matrix, band):
    assert band == matrix.band_size
    return graph_for_matrix(matrix)


@pytest.fixture(scope="module")
def sharded_run(tmp_path_factory):
    """One 2-rank inline run with shards, reused by every test here."""
    import numpy as np

    from repro import TruncationRule, st_3d_exp_problem

    shard_dir = tmp_path_factory.mktemp("shards")
    problem = st_3d_exp_problem(180, 30, seed=3)
    matrix = BandTLRMatrix.from_problem(
        problem, TruncationRule(eps=1e-8), band_size=1
    )
    graph = _graph_for(matrix, 1)
    report = execute_graph_distributed(
        graph, matrix, n_ranks=2, shard_dir=shard_dir, _inline=True
    )
    # the factor stays correct with sharding on
    l = matrix.to_dense(lower_only=True)
    a = problem.dense()
    assert float(np.linalg.norm(l @ l.T - a) / np.linalg.norm(a)) < 1e-6
    return shard_dir, graph, report


class TestShards:
    def test_one_shard_per_rank(self, sharded_run):
        shard_dir, _, _ = sharded_run
        names = sorted(p.name for p in shard_dir.glob("shard-rank*.json"))
        assert names == ["shard-rank0.json", "shard-rank1.json"]

    def test_shard_contents(self, sharded_run):
        shard_dir, graph, _ = sharded_run
        shards = load_shards(shard_dir)
        assert [s["rank"] for s in shards] == [0, 1]
        total = sum(len(s["spans"]) for s in shards)
        assert total == graph.n_tasks
        for s in shards:
            assert {"offset_s", "rtt_s"} <= set(s["clock"])
            assert s["clock"]["rtt_s"] >= 0.0
            for span in s["spans"]:
                assert span["end"] >= span["start"] >= 0.0
                assert {"name", "kind", "kernel", "flops"} <= set(span)

    def test_shard_sketch_counts_tasks(self, sharded_run):
        shard_dir, graph, _ = sharded_run
        shards = load_shards(shard_dir)
        merged = LogHistogram()
        for s in shards:
            merged.merge(LogHistogram.from_dict(s["sketch"]))
        assert merged.count == graph.n_tasks

    def test_wire_traffic_logged(self, sharded_run):
        shard_dir, _, report = sharded_run
        shards = load_shards(shard_dir)
        sends = sum(len(s["comm"]["sends"]) for s in shards)
        recvs = sum(len(s["comm"]["recvs"]) for s in shards)
        assert sends == report.wire_messages
        assert recvs == report.wire_messages


class TestMerge:
    def test_span_conservation(self, sharded_run):
        shard_dir, graph, _ = sharded_run
        m = merge_shards(shard_dir)
        assert isinstance(m, MergeReport)
        assert m.conserved
        assert m.merged_spans == graph.n_tasks
        assert m.shard_spans == {
            r: len(s["spans"])
            for r, s in zip((0, 1), load_shards(shard_dir))
        }

    def test_auto_merge_attached_to_report(self, sharded_run):
        _, graph, report = sharded_run
        assert report.shard_merge is not None
        assert report.shard_merge.conserved
        assert report.shard_merge.merged_spans == graph.n_tasks

    def test_per_rank_lanes_and_metadata(self, sharded_run):
        shard_dir, _, _ = sharded_run
        doc = json.loads((shard_dir / "trace_merged.json").read_text())
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["pid"] for e in spans} == {0, 1}
        names = [
            e for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        ]
        assert {m["args"]["name"] for m in names} == {"rank 0", "rank 1"}

    def test_timestamps_monotone_and_aligned(self, sharded_run):
        shard_dir, _, _ = sharded_run
        doc = json.loads((shard_dir / "trace_merged.json").read_text())
        ts = [e["ts"] for e in doc["traceEvents"] if e["ph"] == "X"]
        assert ts == sorted(ts)
        assert all(t >= 0.0 for t in ts)
        # within one lane spans must not overlap after alignment
        by_lane = {}
        for e in doc["traceEvents"]:
            if e["ph"] == "X":
                by_lane.setdefault((e["pid"], e["tid"]), []).append(
                    (e["ts"], e["ts"] + e["dur"])
                )
        for intervals in by_lane.values():
            intervals.sort()
            for (s0, e0), (s1, _) in zip(intervals, intervals[1:]):
                assert s1 >= e0 - 1e-6

    def test_comm_edges_realized(self, sharded_run):
        shard_dir, _, report = sharded_run
        m = merge_shards(shard_dir)
        assert m.comm_edges == report.wire_messages
        assert m.comm_unmatched == 0
        doc = json.loads((shard_dir / "trace_merged.json").read_text())
        starts = [e for e in doc["traceEvents"] if e["ph"] == "s"]
        finishes = [e for e in doc["traceEvents"] if e["ph"] == "f"]
        assert len(starts) == len(finishes) == m.comm_edges
        by_id = {e["id"]: e for e in starts}
        for f in finishes:
            s = by_id[f["id"]]
            assert s["pid"] != f["pid"]  # crosses ranks
            assert f["ts"] >= s["ts"] - 1e3  # recv not before send (1ms slack)

    def test_clock_offsets_reported(self, sharded_run):
        shard_dir, _, _ = sharded_run
        m = merge_shards(shard_dir)
        assert set(m.offsets_s) == {0, 1}
        assert set(m.rtts_s) == {0, 1}
        assert all(rtt >= 0.0 for rtt in m.rtts_s.values())

    def test_summary_and_percentiles(self, sharded_run):
        shard_dir, _, _ = sharded_run
        m = merge_shards(shard_dir)
        s = m.summary()
        assert s["conserved"] is True
        assert s["n_shards"] == 2
        assert m.makespan_s > 0
        assert 0 < m.task_percentiles["p50"] <= m.task_percentiles["p99"]

    def test_custom_out_path(self, sharded_run, tmp_path):
        shard_dir, _, _ = sharded_run
        m = merge_shards(shard_dir, out=tmp_path / "noext")
        assert m.out_path.suffix == ".json"
        assert m.out_path.exists()


class TestMergeValidation:
    def test_empty_dir_raises(self, tmp_path):
        with pytest.raises(ValueError, match="no shard"):
            merge_shards(tmp_path)

    def test_corrupt_shard_raises(self, tmp_path):
        (tmp_path / "shard-rank0.json").write_text("{broken")
        with pytest.raises(ValueError):
            load_shards(tmp_path)

    def test_rank_mismatch_raises(self, tmp_path):
        (tmp_path / "shard-rank0.json").write_text(
            json.dumps({"rank": 1, "spans": [], "clock": {}})
        )
        with pytest.raises(ValueError, match="rank"):
            load_shards(tmp_path)


class TestCli:
    def test_obs_merge_cli_ok(self, sharded_run, capsys):
        from repro.__main__ import main

        shard_dir, _, _ = sharded_run
        assert main(["obs-merge", str(shard_dir)]) == 0
        out = capsys.readouterr().out
        assert "span conservation: ok" in out
        assert "clock offsets" in out

    def test_obs_merge_cli_bad_input(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main(["obs-merge", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().err
