"""End-to-end tests for the executor on the paper's three query classes."""

import pytest

from repro.engine.executor import EngineOptions, execute, explain
from repro.errors import SemanticError
from repro.lang.parser import parse

from tests.conftest import DAY, QUERY1, QUERY1_ROW


class TestMultieventExecution:
    def test_paper_query1_finds_exactly_the_attack(self, exfil_store):
        result = execute(exfil_store, parse(QUERY1))
        assert result.columns == ["p1", "p2", "p3", "f1", "p4", "i1"]
        assert result.rows == [QUERY1_ROW]
        assert result.kind == "multievent"

    def test_report_is_populated(self, exfil_store):
        result = execute(exfil_store, parse(QUERY1))
        assert "pattern order" in result.report
        assert result.elapsed > 0

    def test_distinct_deduplicates(self, exfil_store):
        duplicated = f'''(at "{DAY}")
proc p["%svchost%"] write file f["%log0%"] as e1
return distinct p'''
        result = execute(exfil_store, parse(duplicated))
        assert result.rows == [("svchost.exe",)]

    def test_without_distinct_keeps_multiplicity(self, exfil_store):
        query = f'''(at "{DAY}")
proc p["%svchost%"] write file f["%log0%"] as e1
return p'''
        result = execute(exfil_store, parse(query))
        assert len(result.rows) > 1

    def test_event_attribute_projection(self, exfil_store):
        query = f'''(at "{DAY}")
proc p["%sqlservr%"] write file f as e1
return f, e1.amount, e1.operation'''
        result = execute(exfil_store, parse(query))
        assert result.rows[0][1] == 500_000
        assert result.rows[0][2] == "write"

    def test_rows_ordered_by_time(self, exfil_store):
        query = f'''(at "{DAY}")
proc p["%svchost%"] write file f as e1
return e1.ts'''
        result = execute(exfil_store, parse(query))
        timestamps = [row[0] for row in result.rows]
        assert timestamps == sorted(timestamps)

    def test_empty_result_when_no_match(self, exfil_store):
        query = 'proc p["%ghost.exe%"] write file f as e1\nreturn f'
        result = execute(exfil_store, parse(query))
        assert result.rows == []

    def test_options_do_not_change_results(self, exfil_store):
        reference = execute(exfil_store, parse(QUERY1)).rows
        for prioritize in (True, False):
            for propagate in (True, False):
                options = EngineOptions(prioritize=prioritize,
                                        propagate=propagate)
                assert execute(exfil_store, parse(QUERY1),
                               options).rows == reference


class TestDependencyExecution:
    def test_dependency_result_kind(self, exfil_store):
        query = f'''(at "{DAY}")
forward: proc p["%sqlservr%"] ->[write] file f["%backup1%"]
<-[read] proc q["%sbblv%"]
return p, f, q'''
        result = execute(exfil_store, parse(query))
        assert result.kind == "dependency"
        assert result.rows == [("sqlservr.exe", r"C:\backup\backup1.dmp",
                                "sbblv.exe")]


class TestAnomalyExecution:
    def test_anomaly_result_has_window_column(self, exfil_store):
        query = f'''(at "{DAY}")
window = 1 hour, step = 1 hour
proc p write ip i as evt
return p, sum(evt.amount) as s
group by p
having s > 0'''
        result = execute(exfil_store, parse(query))
        assert result.columns[0] == "window"
        assert result.kind == "anomaly"
        assert result.rows


class TestExplain:
    def test_multievent_plan_shows_estimates(self, exfil_store):
        text = explain(exfil_store, parse(QUERY1))
        assert "estimated" in text
        assert "evt1" in text

    def test_dependency_explains_rewrite(self, exfil_store):
        text = explain(exfil_store, parse(
            'forward: proc p ->[write] file f return f'))
        assert "compiled to multievent" in text

    def test_anomaly_explained(self, exfil_store):
        text = explain(exfil_store, parse(
            'window = 1 min, step = 10 sec\nproc p write ip i as evt\n'
            'return count(evt) as c'))
        assert "sliding-window" in text


class TestProjectionErrors:
    def test_unknown_return_attribute(self, exfil_store):
        query = parse('proc p start proc c as e1\nreturn c')
        # Patch in a bad attribute to exercise the projection guard.
        from repro.lang import ast
        bad = ast.MultieventQuery(
            header=query.header, patterns=query.patterns,
            temporal=query.temporal,
            return_items=(ast.ReturnItem(
                ast.VarRef("c", "dst_ip")),),
            distinct=False)
        with pytest.raises(SemanticError):
            execute(exfil_store, bad)


class TestSerialPlan:
    """Every multievent query takes one serial schedule -> join path;
    pattern matches from every agent meet in that one join."""

    SHARED_QUERY = ('proc w["%writer%"] write file f["%secret%"] as e1\n'
                    'proc r["%reader%"] read file f as e2\n'
                    'with e1 before e2\nreturn f')

    @pytest.fixture
    def multi_agent_store(self):
        from repro.model.entities import FileEntity, ProcessEntity
        from repro.storage.store import EventStore
        from tests.conftest import BASE_TS
        store = EventStore(bucket_seconds=3600)
        for agent in (1, 2, 3):
            writer = ProcessEntity(agent, 1, "writer.exe")
            reader = ProcessEntity(agent, 2, "reader.exe")
            target = FileEntity(agent, f"/data/secret{agent}")
            store.record(BASE_TS + agent, agent, "write", writer, target)
            store.record(BASE_TS + agent + 10, agent, "read", reader, target)
            for index in range(30):
                store.record(BASE_TS + 100 + index, agent, "write", writer,
                             FileEntity(agent, f"/noise/{index}"))
        return store

    def _names(self, store, options=None):
        from repro.engine.joiner import run_plan
        from repro.engine.planner import plan_multievent
        plan = plan_multievent(parse(self.SHARED_QUERY))
        rows, _report = run_plan(store, plan, options or EngineOptions())
        return sorted(row["f"].name for row in rows)

    def test_all_agents_found(self, multi_agent_store):
        assert self._names(multi_agent_store) == [
            "/data/secret1", "/data/secret2", "/data/secret3"]

    def test_ablation_flags_preserve_results(self, multi_agent_store):
        reference = self._names(multi_agent_store)
        for prioritize in (True, False):
            for propagate in (True, False):
                assert self._names(multi_agent_store, EngineOptions(
                    prioritize=prioritize,
                    propagate=propagate)) == reference


class TestVectorizedAndTopK:
    """The pushed-down, bounded-heap ``top`` is a pure optimization: a
    sqlite replay must produce the row store's rows byte for byte, and a
    ``top N`` must equal the first N rows of the same query without it —
    ties at the cut, null sort keys, and ``top`` larger than the result
    included."""

    @pytest.fixture
    def tied_store(self):
        """Timestamp ties spanning any small ``top`` cut, plus events
        with a null sort attribute (amount-less reads)."""
        from repro.model.entities import FileEntity, ProcessEntity
        from repro.storage.store import EventStore
        store = EventStore()
        writer = ProcessEntity(1, 10, "writer.exe")
        # user=None: a genuinely null sort key for the null-safe
        # composite comparator (the dataclass does not enforce str).
        ghost = ProcessEntity(1, 11, "ghost.exe", user=None)
        for step in range(6):
            for dup in range(4):
                store.record(1000.0 + step * 10, 1, "write",
                             writer if dup % 2 == 0 else ghost,
                             FileEntity(1, f"/t/{dup}.txt"),
                             amount=dup * 100)
        return store

    def _checked_rows(self, store, aiql):
        """Rows from ``store`` and its sqlite replay, checked equal to
        each other and to the untruncated query cut to ``top``."""
        from dataclasses import replace
        from repro.storage.backend import create_backend
        query = parse(aiql)
        replay = create_backend("sqlite")
        replay.ingest(store.scan())
        rows = execute(store, query).rows
        assert execute(replay, query).rows == rows
        if query.top is not None:
            full = execute(store, replace(query, top=None)).rows
            assert rows == full[:query.top]
        return rows

    def test_ties_at_the_top_cut(self, tied_store):
        rows = self._checked_rows(
            tied_store, 'proc p write file f as e1\n'
                        'return f, e1.ts sort by e1.ts desc top 6')
        assert len(rows) == 6
        # Descending ts, ties broken toward the *earlier* event: the two
        # newest tie groups fully, then the cut lands mid-group keeping
        # the smallest-id rows (stable descending sort semantics).
        assert [row[1] for row in rows] == [1050.0] * 4 + [1040.0] * 2
        assert rows[4][0] == "/t/0.txt" and rows[5][0] == "/t/1.txt"

    def test_top_larger_than_result(self, tied_store):
        rows = self._checked_rows(
            tied_store, 'proc p write file f as e1\n'
                        'return f sort by e1.ts top 500')
        assert len(rows) == 24

    def test_descending_sort_with_nulls(self, tied_store):
        """Half the subjects carry ``user=None``: the null-safe
        composite key must rank nulls identically in the bounded heap,
        the full stable sort, and the sqlite replay — nulls last
        under ``desc``, ties still broken by time order."""
        rows = self._checked_rows(
            tied_store, 'proc p write file f as e1\n'
                        'return f, p.user sort by p.user desc top 15')
        assert len(rows) == 15
        users = [row[1] for row in rows]
        # Strings outrank nulls in the null-safe key, so desc puts the
        # twelve "system" rows first and nulls fill the tail of the cut.
        assert users[:12] == ["system"] * 12
        assert users[12:] == [None] * 3

    def test_projection_of_never_filtered_attribute(self, tied_store):
        """Returning an attribute no constraint mentions still reads it
        from every survivor."""
        rows = self._checked_rows(
            tied_store, 'amount >= 200\nproc p write file f as e1\n'
                        'return e1.failcode, f, e1.amount')
        assert rows
        assert all(row[0] == 0 for row in rows)
        assert all(row[2] >= 200 for row in rows)

    def test_distinct_top_keeps_full_sort_semantics(self, tied_store):
        rows = self._checked_rows(
            tied_store, 'proc p write file f as e1\n'
                        'return distinct f sort by e1.ts top 3')
        assert len(rows) == 3
        assert len(set(rows)) == 3

    def test_matrix_agrees_across_backends(self, tied_store):
        """The same checks on a sqlite replay of the row store: every
        backend, one row set."""
        from repro.storage.backend import create_backend
        aiql = ('amount >= 100\nproc p write file f as e1\n'
                'return f, e1.amount sort by e1.ts desc top 10')
        reference = self._checked_rows(tied_store, aiql)
        replay = create_backend("sqlite")
        replay.ingest(tied_store.scan())
        assert self._checked_rows(replay, aiql) == reference
