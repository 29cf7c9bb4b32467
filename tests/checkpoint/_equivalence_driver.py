"""Subprocess driver for the byte-identical resume equivalence tests.

Each invocation runs ONE simulation in a fresh process and dumps its
observable outcome as byte-stable artefacts.  Fresh processes matter:
packet ids and channel labels come from process-global counters, so two
runs inside one interpreter draw different ids even when the
simulations are identical — and conversely, a *restore* resets those
counters from the checkpoint, so a resumed run in a fresh process must
reproduce the reference artefacts byte for byte.

Usage::

    python _equivalence_driver.py SCENARIO MODE CKPT_DIR OUT_DIR INTERVAL

    SCENARIO  idle  — idle-heavy 8x8 mesh (fast-forward dominated),
                      four periodic corner-to-corner channels, tracing on
              chaos — seeded fault-injection soak with tracing on
    MODE      reference  — run uninterrupted (no checkpointing)
              checkpoint — run to completion, checkpointing every
                           INTERVAL cycles
              resume     — load the MIDDLE checkpoint from CKPT_DIR
                           (simulating a crash there) and finish

Artefacts written to OUT_DIR: ``records.json`` (every delivery-log
record, including raw packet ids), ``metrics.json`` (the final metrics
registry snapshot), ``trace.jsonl`` (the exported packet-lifecycle
trace), and for chaos ``report.json`` (signature + counters).
"""

import dataclasses
import json
import pathlib
import sys

IDLE_CYCLES = 16_000
CHAOS_KW = dict(cycles=3000, settle_cycles=1500)


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def dump(net, out_dir, extra=None) -> None:
    from repro.reporting import write_trace_jsonl

    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = [[getattr(record, field.name)
                for field in dataclasses.fields(record)]
               for record in net.log.records]
    (out / "records.json").write_text(canonical(records))
    (out / "metrics.json").write_text(canonical(dict(net.metrics.snapshot())))
    write_trace_jsonl(out / "trace.jsonl", net.tracer.events())
    if extra is not None:
        (out / "report.json").write_text(canonical(extra))


def middle_checkpoint(store, target):
    """The checkpoint closest to ``target`` — the simulated crash point."""
    paths = sorted(store.directory.glob("ckpt-*.json"),
                   key=lambda p: int(p.name.split("-")[1]))
    assert len(paths) >= 3, "need checkpoints on both sides of the crash"
    return min(paths, key=lambda p: abs(int(p.name.split("-")[1]) - target))


# -- idle-heavy mesh (raw network state, no session) -----------------------

def build_idle():
    from repro.channels.spec import TrafficSpec
    from repro.network.network import MeshNetwork
    from repro.traffic.generators import PeriodicSource

    net = MeshNetwork(8, 8)
    slot = net.params.slot_cycles
    endpoints = [((0, 0), (7, 7)), ((7, 0), (0, 7)),
                 ((0, 7), (7, 0)), ((7, 7), (0, 0))]
    for index, (source, destination) in enumerate(endpoints):
        channel = net.establish_channel(
            source, destination, TrafficSpec(i_min=256), deadline=45,
            label=f"idle{index}",
        )
        net.attach_source(source, PeriodicSource(channel, period=256,
                                                 slot_cycles=slot))
    net.enable_tracing()
    return net


def idle_store(ckpt_dir):
    from repro.checkpoint import CheckpointStore, fingerprint_of

    return CheckpointStore(ckpt_dir, "idle",
                           fingerprint_of({"workload": "idle-heavy",
                                           "cycles": IDLE_CYCLES}))


def idle_state(net):
    from repro.checkpoint import SaveContext

    ctx = SaveContext()
    state = {"network": net.state(ctx)}
    state["metas"] = ctx.metas_state()
    return state


def run_idle(mode, ckpt_dir, out_dir, interval):
    from repro.checkpoint import LoadContext

    store = idle_store(ckpt_dir)
    net = build_idle()
    if mode == "reference":
        net.run(IDLE_CYCLES)
    elif mode == "checkpoint":
        while net.cycle < IDLE_CYCLES:
            boundary = (net.cycle // interval + 1) * interval
            net.run(min(IDLE_CYCLES, boundary) - net.cycle)
            if net.cycle % interval == 0:
                store.save(net.cycle, idle_state(net))
    else:
        document = store.load(middle_checkpoint(store, IDLE_CYCLES // 2))
        state = document["state"]
        net.load_state(state["network"], LoadContext(state["metas"]))
        assert net.cycle == document["cycle"]
        net.run(IDLE_CYCLES - net.cycle)
    assert net.engine.cycles_fast_forwarded > 0
    dump(net, out_dir)


# -- chaos soak with active faults -----------------------------------------

def run_chaos(mode, ckpt_dir, out_dir, interval):
    from repro.checkpoint import ChaosSession, CheckpointStore, Execution
    from repro.faults import ChaosConfig

    config = ChaosConfig(**CHAOS_KW)
    if mode == "resume":
        # Crash mid-soak, inside the fault window: faults have fired
        # before the checkpoint and more fire after the resume.
        store = CheckpointStore(ckpt_dir, "chaos",
                                ChaosSession.fingerprint_for(config))
        session = ChaosSession.open(config, execution=Execution(
            resume_from=str(middle_checkpoint(store, config.cycles // 2)),
            checkpoint_interval=interval))
    else:
        session = ChaosSession.open(config, execution=Execution(
            checkpoint_dir=ckpt_dir if mode == "checkpoint" else None,
            checkpoint_interval=interval))
        session.network.enable_tracing()
    report = session.run()
    dump(session.network, out_dir, extra={
        "signature": report.signature(),
        "counters": dict(sorted(report.counters.items())),
        "tc_delivered": report.tc_delivered,
        "be_delivered": report.be_delivered,
        "deadline_misses_total": report.deadline_misses_total,
        "faults_fired": report.faults_fired,
        "degraded_labels": report.degraded_labels,
    })


def main(argv):
    scenario, mode, ckpt_dir, out_dir, interval = argv
    runner = {"idle": run_idle, "chaos": run_chaos}[scenario]
    runner(mode, ckpt_dir, out_dir, int(interval))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
