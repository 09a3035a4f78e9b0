"""Tests for MsgFlow, the interprocedural message-flow/taint analysis.

Mirrors the acceptance shape of ``test_analysis_engine.py``: the repo's
own protocol packages are flow-clean (with zero suppressions in
``smart/``), and a planted violation of each FLOW family makes the
analyzer report the rule at the right ``file:line``.
"""

import json
import textwrap

from repro.analysis.__main__ import main as analysis_main
from repro.analysis.flow import (
    REPO_ROOT,
    analyze_flow,
    graph_to_dot,
    graph_to_json_dict,
)
from repro.analysis.suppress import SUPPRESS_RE

SMART = REPO_ROOT / "src" / "repro" / "smart"

#: One scratch module planting every FLOW finding variant at once.
PLANTED = textwrap.dedent(
    """\
    class Vote:
        kind = "vote"

        def wire_size(self):
            return 8


    class Orphan:
        # no dispatch anywhere -> FLOW002 (no reachable handler)
        def wire_size(self):
            return 8


    class Phantom:
        # dispatched below but never constructed -> FLOW002 (no sender)
        def wire_size(self):
            return 8


    class Node:
        def deliver(self, src, message):
            if isinstance(message, Vote):
                self._on_vote(src, message)
            elif isinstance(message, Phantom):
                pass
            elif isinstance(message, Ghost):
                # Ghost is no message class -> FLOW003 (uncovered entry)
                pass

        def _on_vote(self, src, message):
            # tainted payload lands in vote state unverified -> FLOW001
            self.vote_log.append(message.value)
            slot = self.vote_log.get(message.cid)
            # same bug through a one-hop state alias -> FLOW001
            slot.accepted[message.epoch] = message.value

        def _on_safe(self, src, message):
            if not self.verify(message):
                return
            self.vote_log.append(message.value)

        def on_orphaned(self, src, message):
            # handler-named, never dispatched -> FLOW003 (dead handler)
            pass


    def send(net):
        net.send(Vote())
    """
)


def plant(tmp_path, source, name="scratch.py"):
    scratch = tmp_path / name
    scratch.write_text(source)
    return scratch


def planted_findings(tmp_path, source):
    plant(tmp_path, source)
    findings, _ = analyze_flow(["scratch.py"], root=tmp_path)
    return findings


class TestRepoIsClean:
    def test_protocol_packages_are_flow_clean(self):
        findings, analyzer = analyze_flow()
        assert findings == []
        # the graph actually covered the protocol surface
        assert len(analyzer.messages) > 20
        assert len(analyzer._reached) > 50
        # ... and the committed snapshot of it is current
        committed = (REPO_ROOT / "docs" / "msgflow.dot").read_text()
        assert graph_to_dot(analyzer) == committed, (
            "docs/msgflow.dot is stale: regenerate it with `make msgflow`"
        )

    def test_cli_exits_zero_on_repo(self, capsys):
        assert analysis_main(["flow"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_workload_package_is_on_the_flow_surface(self):
        from repro.analysis.flow import DEFAULT_FLOW_PATHS

        assert "src/repro/workload" in DEFAULT_FLOW_PATHS
        findings, _ = analyze_flow(["src/repro/workload"])
        assert findings == []

    def test_workload_scheduling_is_proto_clean(self):
        """The workload engine schedules exclusively through the
        simulator: the PROTO003 scheduler-bypass rule (and the rest of
        the DET/PROTO catalog) has nothing to flag in the package."""
        from repro.analysis import analyze_paths

        assert analyze_paths(["src/repro/workload"]) == []

    def test_proto003_catches_a_scheduler_bypass_in_workload_code(self):
        """Teeth check: a generator that reaches for ``threading`` or
        ``time.sleep`` instead of ``sim.post`` is flagged."""
        from repro.analysis import analyze_source

        planted = textwrap.dedent(
            """\
            import threading
            import time


            class RogueGenerator:
                def start(self):
                    time.sleep(0.1)
            """
        )
        findings = analyze_source("src/repro/workload/scratch.py", planted)
        assert {f.rule for f in findings} >= {"PROTO003"}
        assert any("threading" in f.message for f in findings)
        assert any("time.sleep" in f.message for f in findings)

    def test_smart_protocol_paths_have_zero_suppressions(self):
        offenders = []
        for path in sorted(SMART.rglob("*.py")):
            for lineno, line in enumerate(
                path.read_text().splitlines(), start=1
            ):
                if SUPPRESS_RE.search(line):
                    offenders.append(f"{path.name}:{lineno}")
        assert offenders == []


class TestPlantedViolations:
    def test_all_three_families_fire(self, tmp_path):
        findings = planted_findings(tmp_path, PLANTED)
        assert {f.rule for f in findings} == {
            "FLOW001",
            "FLOW002",
            "FLOW003",
        }

    def test_flow001_unverified_state_write(self, tmp_path):
        findings = planted_findings(tmp_path, PLANTED)
        flow001 = [f for f in findings if f.rule == "FLOW001"]
        # direct mutator sink + the alias-rooted subscript store; the
        # verify-guarded sibling handler stays silent
        assert len(flow001) == 2
        assert any("vote_log.append" in f.message for f in flow001)
        assert any("slot.accepted" in f.message for f in flow001)

    def test_flow002_no_handler_and_no_sender(self, tmp_path):
        findings = planted_findings(tmp_path, PLANTED)
        messages = [f.message for f in findings if f.rule == "FLOW002"]
        assert any(
            "'Orphan'" in m and "no reachable handler" in m for m in messages
        )
        assert any("'Phantom'" in m and "no sender" in m for m in messages)

    def test_flow003_uncovered_entry_and_dead_handler(self, tmp_path):
        findings = planted_findings(tmp_path, PLANTED)
        messages = [f.message for f in findings if f.rule == "FLOW003"]
        assert any("'Ghost'" in m for m in messages)
        assert any("Node.on_orphaned" in m for m in messages)

    def test_verified_handler_is_clean(self, tmp_path):
        source = textwrap.dedent(
            """\
            class Vote:
                def wire_size(self):
                    return 8


            class Node:
                def deliver(self, src, message):
                    if isinstance(message, Vote):
                        if not self.verify_signature(message):
                            return
                        self.vote_log.append(message.value)


            def send(net):
                net.send(Vote())
            """
        )
        assert planted_findings(tmp_path, source) == []

    def test_sender_keyed_slot_is_exempt(self, tmp_path):
        # self._voted[src] = ... writes to a per-sender slot keyed by
        # the channel-authenticated identity, not forgeable payload
        source = textwrap.dedent(
            """\
            class Vote:
                def wire_size(self):
                    return 8


            class Node:
                def deliver(self, src, message):
                    if isinstance(message, Vote):
                        self.vote_slots[src] = message.value


            def send(net):
                net.send(Vote())
            """
        )
        assert planted_findings(tmp_path, source) == []

    def test_cli_reports_rule_and_location(self, tmp_path, capsys):
        scratch = plant(tmp_path, PLANTED)
        code = analysis_main(["flow", str(scratch)])
        out = capsys.readouterr().out
        assert code == 1
        for rule in ("FLOW001", "FLOW002", "FLOW003"):
            assert rule in out
        assert "scratch.py" in out


class TestSuppressions:
    def test_inline_allow_silences_flow001(self, tmp_path):
        suppressed = PLANTED.replace(
            "self.vote_log.append(message.value)\n        slot",
            "self.vote_log.append(message.value)"
            "  # repro: allow[FLOW001] planted\n        slot",
        )
        assert suppressed != PLANTED
        findings = planted_findings(tmp_path, suppressed)
        flow001 = [f for f in findings if f.rule == "FLOW001"]
        assert len(flow001) == 1  # only the alias store is left

    def test_unknown_rule_is_sup001(self, tmp_path):
        marker = "# repro: " "allow[FLOW999]"
        source = f"x = 1  {marker}\n"
        findings = planted_findings(tmp_path, source)
        assert [f.rule for f in findings] == ["SUP001"]
        assert "FLOW999" in findings[0].message


class TestArtifacts:
    def test_json_report_and_graph_written(self, tmp_path, capsys):
        scratch = plant(tmp_path, PLANTED)
        report = tmp_path / "report.json"
        graph = tmp_path / "graph.json"
        dot = tmp_path / "graph.dot"
        code = analysis_main(
            [
                "flow",
                str(scratch),
                "--json",
                str(report),
                "--graph",
                str(graph),
                "--dot",
                str(dot),
            ]
        )
        capsys.readouterr()
        assert code == 1
        doc = json.loads(report.read_text())
        assert doc["schema"] == "repro-analysis-report/1"
        assert doc["analyzer"] == "msgflow"
        assert doc["clean"] is False
        graph_doc = json.loads(graph.read_text())
        assert graph_doc["schema"] == "repro-msgflow-graph/1"
        names = {c["name"] for c in graph_doc["message_classes"]}
        assert {"Vote", "Orphan", "Phantom"} <= names
        assert dot.read_text().startswith("digraph msgflow {")

    def test_graph_records_handlers_and_senders(self, tmp_path):
        plant(tmp_path, PLANTED)
        _, analyzer = analyze_flow(["scratch.py"], root=tmp_path)
        doc = graph_to_json_dict(analyzer)
        vote = next(
            c for c in doc["message_classes"] if c["name"] == "Vote"
        )
        assert vote["kind"] == "vote"
        assert vote["handlers"] and vote["senders"]
        dot = graph_to_dot(analyzer)
        assert "Vote" in dot and "->" in dot


class TestCliCatalog:
    def test_rules_listing_includes_flow_family(self, capsys):
        assert analysis_main(["rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("FLOW001", "FLOW002", "FLOW003", "RACESAN001"):
            assert rule_id in out
