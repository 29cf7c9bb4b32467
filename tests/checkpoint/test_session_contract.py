"""The one-driver contract, checked on all three session classes.

``Session`` owns the run loop, ``state``/``restore``/``open`` and the
checkpoint cadence; ``ChaosSession``, ``RandomWorkloadSession`` and
``ServiceSession`` supply only what differs.  One parametrisation pins
what that promises: the same report bytes however a run is
interrupted, the checkpoint document schema, the open-or-resume rule,
and that no subclass re-grows a loop of its own.

Same-process caveat (see ``test_sessions.py``): packet ids come from a
process-global counter, so the random workload's delivery records are
compared without that field; byte-for-byte equality including it is
proven cross-process in ``test_resume_equivalence.py``.
"""

import dataclasses
import importlib
import json

import pytest

from repro.campaign.spec import canonical_dumps
from repro.checkpoint import (
    ChaosSession,
    CheckpointError,
    CheckpointStore,
    Execution,
    RandomWorkloadSession,
    Session,
)
from repro.cli import main
from repro.faults import ChaosConfig
from repro.service import ServiceRunConfig, ServiceSession
from tests.reference import assert_oracle_ran, assert_ran_as

SHARED_KEYS = {"phase", "span_end", "next_check", "invariant_failures",
               "network", "metas"}


def chaos_bytes(session, report):
    return canonical_dumps([report.signature(), report.counters])


def slo_bytes(session, report):
    return canonical_dumps(report.as_dict())


def record_bytes(session, net):
    return canonical_dumps([
        [getattr(record, field.name)
         for field in dataclasses.fields(record)
         if field.name != "packet_id"]
        for record in net.log.records])


@dataclasses.dataclass(frozen=True)
class Case:
    cls: type
    spec: tuple
    foreign: tuple          # same shape, different fingerprint
    interval: int
    keys: frozenset         # the checkpoint document's state keys
    finish_phase: str
    report_bytes: callable


CHAOS = dict(seed=11, cycles=1200, settle_cycles=600)
SERVICE = dict(width=3, height=3, requests=30, arrival_period_ticks=3,
               hold_ticks=60, seed=17)
CASES = [
    Case(ChaosSession, (ChaosConfig(**CHAOS),),
         (ChaosConfig(**{**CHAOS, "seed": 12}),), 400,
         frozenset(SHARED_KEYS | {
             "next_message", "next_be", "admission_rejects",
             "channel_labels", "be_payloads", "rng", "injector",
             "controller"}),
         "settle", chaos_bytes),
    Case(RandomWorkloadSession, (3, 3, 4, 60, 9), (3, 3, 4, 60, 10), 300,
         frozenset(SHARED_KEYS | {
             "next_tick", "admission_rejects", "admitted", "rng"}),
         "drain", record_bytes),
    Case(ServiceSession, (ServiceRunConfig(**SERVICE),),
         (ServiceRunConfig(**{**SERVICE, "seed": 18}),), 1000,
         frozenset(SHARED_KEYS | {
             "next_tick", "next_request", "controller"}),
         "drain", slo_bytes),
]


@pytest.fixture(params=CASES, ids=[case.cls.KIND for case in CASES])
def case(request):
    return request.param


def store_for(case, directory, spec=None):
    return CheckpointStore(
        directory, case.cls.KIND,
        case.cls.fingerprint_for(*(case.spec if spec is None else spec)))


def checkpointing(case, directory, **how):
    return Execution(checkpoint_dir=str(directory),
                     checkpoint_interval=case.interval, **how)


def run_bytes(case, session):
    return case.report_bytes(session, session.run())


def checkpoints(store):
    return sorted(store.directory.glob("ckpt-*.json"),
                  key=lambda path: int(path.name.split("-")[1]))


class TestSameBytesHoweverInterrupted:
    def test_plain_checkpointing_and_every_restore(self, case, tmp_path):
        oracle = case.cls(*case.spec, execution=Execution(engine="exact"))
        reference = run_bytes(case, oracle)
        assert_oracle_ran(oracle.network.engine)

        plain = case.cls(*case.spec)
        assert run_bytes(case, plain) == reference
        assert_ran_as(plain.network.engine, "event")

        store = store_for(case, tmp_path / "ckpts")
        assert run_bytes(case, case.cls.open(
            *case.spec, execution=checkpointing(case, store.directory))
        ) == reference
        written = checkpoints(store)
        assert len(written) >= 3, "run too short to test resume"
        for path in written:
            state = store.load(path)["state"]
            resumed = case.cls.restore(*case.spec, state)
            assert resumed.network.cycle == int(path.name.split("-")[1])
            assert run_bytes(case, resumed) == reference, path.name
            assert resumed.phase == "done"


class TestDocumentSchema:
    def test_state_keys_and_phases(self, case, monkeypatch):
        phases = []
        finish = case.cls._finish

        def recording_finish(session):
            phases.append(session.state()["phase"])
            finish(session)

        monkeypatch.setattr(case.cls, "_finish", recording_finish)
        session = case.cls(*case.spec)
        fresh = session.state()
        assert set(fresh) == case.keys
        assert fresh["phase"] == "main"
        session.run()
        assert phases == [case.finish_phase]
        done = session.state()
        assert set(done) == case.keys
        assert done["phase"] == "done"
        json.dumps(done)  # plain JSON all the way down

    def test_a_host_document_is_its_release_heap(self, case, tmp_path):
        # Traffic enters through send_message / send_best_effort only,
        # so a host document holds the messages the regulator holds
        # back and nothing else.
        store = store_for(case, tmp_path / "ckpts")
        case.cls.open(*case.spec,
                      execution=checkpointing(case, store.directory)).run()
        hosts = [host for path in checkpoints(store)
                 for host in store.load(path)["state"]["network"]["hosts"]]
        assert hosts
        assert all(set(host) == {"release_heap", "tiebreak"}
                   for host in hosts)


class TestOpen:
    def test_fresh_on_an_empty_store(self, case, tmp_path):
        session = case.cls.open(
            *case.spec, execution=checkpointing(case, tmp_path / "none"))
        assert session.network.cycle == 0
        assert session.phase == "main"
        assert case.cls.open(*case.spec).network.cycle == 0

    def test_resumes_latest_and_honours_resume_from(self, case, tmp_path):
        store = store_for(case, tmp_path / "ckpts")
        how = checkpointing(case, store.directory)
        reference = run_bytes(case, case.cls.open(*case.spec, execution=how))
        written = checkpoints(store)
        assert store.latest() == written[-1]
        latest = case.cls.open(*case.spec, execution=how)
        assert latest.network.cycle == int(written[-1].name.split("-")[1])
        # With only a file, checkpointing continues beside it.
        first = case.cls.open(*case.spec, execution=Execution(
            resume_from=str(written[0]), checkpoint_interval=case.interval))
        assert first.network.cycle == int(written[0].name.split("-")[1])
        assert first.fingerprint() == store.fingerprint
        assert run_bytes(case, first) == reference

    def test_foreign_fingerprint_is_refused(self, case, tmp_path):
        directory = tmp_path / "ckpts"
        how = checkpointing(case, directory)
        case.cls.open(*case.foreign, execution=how).run()
        with pytest.raises(CheckpointError, match="fingerprint"):
            case.cls.open(*case.spec, execution=how)
        latest = store_for(case, directory).latest()
        with pytest.raises(CheckpointError, match="fingerprint"):
            case.cls.open(*case.spec, execution=checkpointing(
                case, directory, resume_from=str(latest)))

    def test_resume_from_needs_a_store(self, case, tmp_path):
        # ... and always has one: the file's own directory.  What is
        # left to refuse is a file that is not there.
        with pytest.raises(CheckpointError, match="not found"):
            case.cls.open(*case.spec, execution=Execution(
                resume_from=str(tmp_path / "ckpt-1-abc.json")))


class TestOneDriver:
    DRIVER_OWNED = ("run", "state", "restore", "open", "fingerprint",
                    "attach_store", "_run_span", "_check_invariants")

    @classmethod
    def regrown(cls, session_class):
        return [name for name in cls.DRIVER_OWNED
                if name in vars(session_class)]

    def test_subclasses_define_no_loop_of_their_own(self, case):
        assert issubclass(case.cls, Session)
        assert self.regrown(Session) == list(self.DRIVER_OWNED)
        assert self.regrown(case.cls) == []

    def test_the_pin_catches_a_regrown_method(self):
        class Regrown(RandomWorkloadSession):
            def run(self):
                return super().run()

            @classmethod
            def restore(cls, *args, **options):
                return super().restore(*args, **options)

        assert self.regrown(Regrown) == ["run", "restore"]


class TestOneEstablishmentPath:
    """The analytic engine and the fault model establish and reroute
    through ``ChannelManager``; a regrown mirror of it would have to
    import the pieces establishment is made of."""

    ESTABLISHMENT_OWNED = (
        "HopDescriptor", "multicast_tree", "multicast_tree_avoiding",
        "tree_parents", "shortest_route_avoiding", "least_loaded_route",
        "dimension_ordered_route")

    @pytest.mark.parametrize("module", ["engine", "faultmodel"])
    def test_analysis_imports_no_piece_of_establishment(self, module):
        namespace = vars(importlib.import_module(
            f"repro.schedulability.{module}"))
        assert [name for name in self.ESTABLISHMENT_OWNED
                if name in namespace] == []


class TestOneRandomWorkload:
    """``simulate``, ``trace`` and ``metrics`` run one workload
    definition: same seed, same TC/BE delivery counts."""

    ARGS = ["--width", "3", "--height", "3", "--channels", "4",
            "--ticks", "60", "--seed", "9"]

    @staticmethod
    def table(out):
        return {line.rsplit(None, 1)[0].strip(): line.rsplit(None, 1)[1]
                for line in out.splitlines() if len(line.split()) > 1}

    def test_same_delivery_counts(self, capsys, tmp_path):
        assert main(["simulate", *self.ARGS]) == 0
        simulate = self.table(capsys.readouterr().out)
        counts = (int(simulate["time-constrained delivered"]),
                  int(simulate["best-effort delivered"]))
        assert min(counts) > 0

        assert main(["metrics", *self.ARGS]) == 0
        metrics = self.table(capsys.readouterr().out)
        assert (int(metrics["delivery.tc_delivered"]),
                int(metrics["delivery.be_delivered"])) == counts

        trace_path = tmp_path / "trace.jsonl"
        assert main(["trace", str(trace_path), *self.ARGS]) == 0
        delivered = [json.loads(line)["traffic_class"]
                     for line in trace_path.read_text().splitlines()
                     if json.loads(line)["event"] == "deliver"]
        assert (delivered.count("TC"), delivered.count("BE")) == counts
