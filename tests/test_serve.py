"""Solve-as-a-service core: validation, cache, store, scheduler, recovery."""

from __future__ import annotations

import json
import time

import pytest

from repro.serve import (
    JobStore,
    JobValidationError,
    LRUCache,
    QueueFull,
    ServiceDraining,
    SolveService,
    validate_job,
)

# a tiny deterministic flowshop job: generator-spec instances need no
# data files and a 4x4 grid finishes a handful of generations in ~100ms
FAST_JOB = {
    "problem": "flowshop",
    "instance": "fs8x4.1",
    "engine": "sync",
    "config": {"grid_rows": 4, "grid_cols": 4},
    "budget": {"max_generations": 6},
    "seed": 1,
}
# big enough to still be mid-flight when a test drains the service
LONG_JOB = {
    "problem": "flowshop",
    "instance": "fs10x5.1",
    "engine": "sync",
    "config": {"grid_rows": 6, "grid_cols": 6, "ls_iterations": 30},
    "budget": {"max_generations": 50},
}


def _wait(predicate, timeout_s=30.0, every_s=0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(every_s)
    raise AssertionError("condition not met within timeout")


class TestLRUCache:
    def test_evicts_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # touch: 'b' is now the LRU entry
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_get_or_load_counts_hits_and_misses(self):
        cache = LRUCache(4)
        loads = []
        for _ in range(3):
            assert cache.get_or_load("k", lambda: loads.append(1) or "v") == "v"
        assert len(loads) == 1
        assert cache.stats() == {"capacity": 4, "size": 1, "hits": 2, "misses": 1}


class TestInlineInstanceSpool:
    def test_concurrent_writers_of_one_new_payload(self, tmp_path, monkeypatch):
        """Workers spooling the same new inline instance at once all succeed."""
        import os
        import threading

        from repro.problems.flowshop import (
            FLOWSHOP,
            make_flowshop,
            save_flowshop_instance,
        )
        from repro.serve import worker

        inst = make_flowshop(6, 3, seed=4)
        save_flowshop_instance(inst, tmp_path / "src.fsp")
        spec = {"name": "inline", "content": (tmp_path / "src.fsp").read_text()}
        spool = tmp_path / "spool"
        writers = 3
        # hold every writer between its write and its replace, so all
        # have written before any publishes: the worst interleaving
        gate = threading.Barrier(writers, timeout=10)
        real_replace = os.replace

        def gated_replace(src, dst):
            gate.wait()
            real_replace(src, dst)

        monkeypatch.setattr(worker.os, "replace", gated_replace)
        loaded, errors = [], []

        def spool_it():
            try:
                loaded.append(
                    worker._resolve_instance(FLOWSHOP, spec, spool, LRUCache(2))
                )
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=spool_it) for _ in range(writers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(loaded) == writers and all(x == inst for x in loaded)
        assert [p.suffix for p in (spool / "instances").iterdir()] == [".inst"]


class TestValidateJob:
    def test_defaults_fill_in(self):
        spec = validate_job({})
        assert spec["problem"] == "independent"
        assert spec["engine"] == "async"
        assert spec["instance"] == "u_i_hihi.0"
        assert spec["budget"] == {"max_evaluations": 5000}
        assert spec["seed"] == 0 and spec["inject"] is None

    def test_unknown_field_rejected(self):
        with pytest.raises(JobValidationError, match="unknown job fields: bogus"):
            validate_job({"bogus": 1})

    def test_unknown_problem_and_engine_list_the_registry(self):
        with pytest.raises(JobValidationError, match="flowshop"):
            validate_job({"problem": "nope"})
        with pytest.raises(JobValidationError, match="async"):
            validate_job({"engine": "nope"})

    def test_config_overrides_validated_against_cgaconfig(self):
        with pytest.raises(JobValidationError, match="invalid config overrides: bogus"):
            validate_job({"config": {"bogus": 1}})
        with pytest.raises(JobValidationError, match="problem"):
            validate_job({"config": {"problem": "flowshop"}})
        with pytest.raises(JobValidationError, match="single-stream"):
            validate_job({"engine": "sync", "config": {"n_threads": 3}})

    def test_obs_override_rejected(self):
        # a remote client must not choose a server-side telemetry path
        with pytest.raises(JobValidationError, match="invalid config overrides: obs"):
            validate_job({"config": {"obs": {"out": "/tmp/x"}}})

    def test_budget_validated_against_stopcondition(self):
        with pytest.raises(JobValidationError, match="invalid budget bounds: walltime"):
            validate_job({"budget": {"walltime": 3}})
        with pytest.raises(JobValidationError, match="invalid budget"):
            validate_job({"budget": {"max_evaluations": -5}})
        # an empty budget falls back to the service default
        assert validate_job({"budget": {}})["budget"] == {"max_evaluations": 5000}

    def test_budget_the_engine_cannot_enforce_rejected(self):
        # only the simulator keeps a virtual clock, and it ignores the
        # wall clock: either job would never finish
        with pytest.raises(JobValidationError, match="virtual_time"):
            validate_job({"engine": "threads", "budget": {"virtual_time": 0.5}})
        with pytest.raises(JobValidationError, match="virtual_time"):
            validate_job({"engine": "async", "budget": {"virtual_time": 0.5}})
        with pytest.raises(JobValidationError, match="wall_time_s"):
            validate_job({"engine": "sim", "budget": {"wall_time_s": 5.0}})
        budget = {"virtual_time": 0.5, "max_evaluations": 100}
        assert validate_job({"engine": "threads", "budget": budget})["budget"] == budget
        # every engine checks a target fitness
        budget = {"target_fitness": 1.0}
        assert validate_job({"engine": "threads", "budget": budget})["budget"] == budget

    def test_seed_must_be_nonnegative_int(self):
        for bad in (-1, 1.5, "7", True):
            with pytest.raises(JobValidationError, match="seed"):
                validate_job({"seed": bad})

    def test_inline_instance_payload(self):
        spec = validate_job(
            {"problem": "flowshop", "instance": {"name": "mine", "content": "fake"}}
        )
        assert spec["instance"] == {"name": "mine", "content": "fake"}
        with pytest.raises(JobValidationError, match="content"):
            validate_job({"instance": {"name": "x"}})
        with pytest.raises(JobValidationError, match="unknown keys"):
            validate_job({"instance": {"content": "x", "path": "/etc/passwd"}})

    def test_inject_keys_checked(self):
        with pytest.raises(JobValidationError, match="inject"):
            validate_job({"inject": {"explode": True}})


class TestJobStore:
    def test_records_persist_atomically(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.create(validate_job(FAST_JOB), max_retries=2)
        on_disk = json.loads((tmp_path / "jobs" / f"{job['id']}.json").read_text())
        assert on_disk["state"] == "queued" and on_disk["spec"]["engine"] == "sync"
        store.update(job["id"], state="running", worker=0)
        on_disk = json.loads((tmp_path / "jobs" / f"{job['id']}.json").read_text())
        assert on_disk["state"] == "running" and on_disk["worker"] == 0

    def test_recover_requeues_only_nonterminal(self, tmp_path):
        store = JobStore(tmp_path)
        spec = validate_job(FAST_JOB)
        a = store.create(spec, max_retries=2)
        b = store.create(spec, max_retries=2)
        c = store.create(spec, max_retries=2)
        store.update(a["id"], state="done")
        store.update(b["id"], state="running", worker=1)
        store.update(c["id"], state="parked")
        # foreign files sharing jobs/ (linked postmortems) must be skipped
        (tmp_path / "jobs" / f"{b['id']}-postmortem.json").write_text('{"error": "x"}')
        (tmp_path / "jobs" / "torn.json").write_text("{not json")
        fresh = JobStore(tmp_path)
        requeued = fresh.recover()
        assert [j["id"] for j in requeued] == [b["id"], c["id"]]
        assert all(j["state"] == "queued" and j["worker"] is None for j in requeued)
        assert fresh.get(a["id"])["state"] == "done"

    def test_unknown_state_rejected(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.create(validate_job(FAST_JOB), max_retries=0)
        with pytest.raises(ValueError, match="unknown job state"):
            store.update(job["id"], state="exploded")


class TestBackpressure:
    def test_queue_full_raises_with_retry_after(self, tmp_path):
        # service never started -> nothing drains the queue
        svc = SolveService(tmp_path, workers=1, queue_limit=2)
        svc.submit(FAST_JOB)
        svc.submit(FAST_JOB)
        with pytest.raises(QueueFull) as exc:
            svc.submit(FAST_JOB)
        assert exc.value.depth == 2 and exc.value.limit == 2
        assert exc.value.retry_after_s >= 1.0
        assert svc.metrics.counters["serve.jobs.rejected_full"] == 1

    def test_draining_service_rejects(self, tmp_path):
        svc = SolveService(tmp_path, workers=1)
        svc._draining.set()
        with pytest.raises(ServiceDraining):
            svc.submit(FAST_JOB)

    def test_invalid_payload_never_enqueued(self, tmp_path):
        svc = SolveService(tmp_path, workers=1)
        with pytest.raises(JobValidationError, match="unknown engine 'island'"):
            svc.submit({"engine": "island"})
        assert svc.snapshot()["queue_depth"] == 0 and not svc.jobs()


class TestServiceEndToEnd:
    def test_jobs_complete_and_metrics_render(self, tmp_path):
        svc = SolveService(tmp_path, workers=2, queue_limit=16).start()
        try:
            ids = [svc.submit(dict(FAST_JOB, seed=i))["id"] for i in range(4)]
            _wait(lambda: all(svc.job(i)["state"] == "done" for i in ids))
            for i in ids:
                rec = svc.job(i)
                assert rec["result"]["generations"] == 6
                assert rec["attempts"] == 1 and rec["error"] is None
            text = svc.openmetrics()
            assert "repro_serve_jobs_completed_total 4" in text
            assert text.rstrip().endswith("# EOF")
        finally:
            svc.stop()

    def test_identical_jobs_identical_results(self, tmp_path):
        # the worker's instance/seed caches must not perturb trajectories
        svc = SolveService(tmp_path, workers=1).start()
        try:
            a = svc.submit(FAST_JOB)["id"]
            b = svc.submit(FAST_JOB)["id"]
            _wait(lambda: svc.job(b)["state"] == "done" and svc.job(a)["state"] == "done")
            assert svc.job(a)["result"] == svc.job(b)["result"]
        finally:
            svc.stop()

    def test_crash_is_retried_from_checkpoint_with_postmortem(self, tmp_path):
        svc = SolveService(
            tmp_path, workers=1, fault_injection=True, retry_backoff_s=0.05
        ).start()
        try:
            job = svc.submit(
                dict(
                    FAST_JOB,
                    budget={"max_generations": 8},
                    inject={"crash_after_generations": 3, "crash_attempts": 1},
                )
            )
            rec = _wait(
                lambda: (r := svc.job(job["id"]))["state"] in ("done", "failed") and r
            )
            assert rec["state"] == "done"
            assert rec["attempts"] == 2
            assert rec["resumed"] is True  # attempt 2 resumed the checkpoint
            assert rec["result"]["generations"] == 8
            assert "died" in rec["error"]  # the crash note survives for operators
            postmortem = json.loads((tmp_path / "jobs").joinpath(
                f"{job['id']}-postmortem.json").read_text())
            assert rec["postmortem"].endswith(f"{job['id']}-postmortem.json")
            assert "injected worker crash" in json.dumps(postmortem)
            assert svc.metrics.counters["serve.jobs.retried"] == 1
            assert svc.metrics.counters["serve.workers.restarts"] == 1
        finally:
            svc.stop()

    def test_retries_exhausted_marks_failed(self, tmp_path):
        svc = SolveService(
            tmp_path, workers=1, fault_injection=True,
            max_retries=1, retry_backoff_s=0.05,
        ).start()
        try:
            job = svc.submit(
                dict(
                    FAST_JOB,
                    budget={"max_generations": 8},
                    inject={"crash_after_generations": 2, "crash_attempts": 99},
                )
            )
            rec = _wait(
                lambda: (r := svc.job(job["id"]))["state"] in ("done", "failed") and r
            )
            assert rec["state"] == "failed"
            assert rec["attempts"] == 2  # first try + one retry
            assert "died" in rec["error"] and rec["postmortem"] is not None
            assert svc.metrics.counters["serve.jobs.failed"] == 1
        finally:
            svc.stop()

    def test_deterministic_error_fails_without_retry(self, tmp_path):
        # unloadable instance: the worker reports it, no crash machinery
        svc = SolveService(tmp_path, workers=1).start()
        try:
            job = svc.submit(
                {"problem": "independent", "instance": "no_such_instance_file"}
            )
            rec = _wait(
                lambda: (r := svc.job(job["id"]))["state"] in ("done", "failed") and r
            )
            assert rec["state"] == "failed"
            assert rec["attempts"] == 1 and rec["postmortem"] is None
        finally:
            svc.stop()

    def test_inject_ignored_without_fault_injection(self, tmp_path):
        svc = SolveService(tmp_path, workers=1).start()
        try:
            job = svc.submit(
                dict(FAST_JOB, inject={"crash_after_generations": 1})
            )
            rec = _wait(
                lambda: (r := svc.job(job["id"]))["state"] in ("done", "failed") and r
            )
            assert rec["state"] == "done" and rec["attempts"] == 1
        finally:
            svc.stop()

    def test_inline_instance_roundtrip(self, tmp_path):
        # generate a flowshop instance body, submit it inline
        from repro.problems import resolve_problem

        problem = resolve_problem("flowshop")
        inst = problem.load_instance("fs6x3.2")
        lines = [f"{inst.njobs} {inst.nmachines}"]
        for j in range(inst.njobs):
            lines.append(" ".join(str(float(v)) for v in inst.p[j]))
        content = "\n".join(lines) + "\n"
        svc = SolveService(tmp_path, workers=1).start()
        try:
            job = svc.submit(
                {
                    "problem": "flowshop",
                    "instance": {"name": "inline-fs", "content": content},
                    "engine": "sync",
                    "config": {"grid_rows": 4, "grid_cols": 4},
                    "budget": {"max_generations": 4},
                }
            )
            rec = _wait(
                lambda: (r := svc.job(job["id"]))["state"] in ("done", "failed") and r
            )
            assert rec["state"] == "done", rec["error"]
            spooled = list((tmp_path / "instances").glob("inline-fs-*.inst"))
            assert len(spooled) == 1  # content-addressed spool file
        finally:
            svc.stop()


class TestStallEscalation:
    def test_hung_worker_is_killed_job_fails_and_slot_keeps_serving(self, tmp_path):
        # a worker that stops reporting progress must be SIGKILLed and
        # flow through the normal crash path: the job reaches a terminal
        # state, the slot restarts, and the service keeps processing
        svc = SolveService(
            tmp_path, workers=1, fault_injection=True,
            max_retries=0, stall_deadline_s=0.75,
        ).start()
        try:
            job = svc.submit(
                dict(
                    FAST_JOB,
                    budget={"max_generations": 8},
                    inject={"hang_after_generations": 2},
                )
            )
            rec = _wait(
                lambda: (r := svc.job(job["id"]))["state"] in ("done", "failed") and r
            )
            assert rec["state"] == "failed"
            assert "died" in rec["error"]
            # exactly one stall event: the kill is reaped next tick, so
            # the deadline check must not re-fire on the same stall
            assert svc.metrics.counters["serve.jobs.stalled"] == 1
            assert svc.metrics.counters["serve.workers.restarts"] == 1
            # the restarted slot still serves (workers=1: a lost slot
            # would park the whole service forever)
            follow = svc.submit(FAST_JOB)
            rec2 = _wait(
                lambda: (r := svc.job(follow["id"]))["state"] in ("done", "failed") and r
            )
            assert rec2["state"] == "done"
        finally:
            svc.stop()

    def test_restart_is_counted_before_the_job_turns_failed(self, tmp_path):
        # a slow fork must not open a window in which the job already
        # reads failed but the restart is not yet counted
        svc = SolveService(
            tmp_path, workers=1, fault_injection=True,
            max_retries=0, stall_deadline_s=0.75,
        ).start()
        restart = svc.pool.restart

        def slow_restart(wid):
            time.sleep(0.5)
            restart(wid)

        svc.pool.restart = slow_restart
        try:
            job = svc.submit(
                dict(FAST_JOB, inject={"hang_after_generations": 2})
            )
            rec = _wait(
                lambda: (r := svc.job(job["id"]))["state"] in ("done", "failed") and r,
                every_s=0.01,
            )
            assert rec["state"] == "failed"
            assert svc.metrics.counters.get("serve.workers.restarts") == 1
        finally:
            svc.stop()

    def test_stalled_job_retries_and_inflight_set_empties(self, tmp_path):
        # with retries left, a stall-kill must requeue the job; the hang
        # re-fires every attempt, so exhaustion ends in 'failed' with
        # nothing stuck in the in-flight set
        svc = SolveService(
            tmp_path, workers=1, fault_injection=True,
            max_retries=1, retry_backoff_s=0.05, stall_deadline_s=0.75,
        ).start()
        try:
            job = svc.submit(
                dict(
                    FAST_JOB,
                    budget={"max_generations": 8},
                    inject={"hang_after_generations": 2},
                )
            )
            rec = _wait(
                lambda: (r := svc.job(job["id"]))["state"] in ("done", "failed") and r,
                timeout_s=60.0,
            )
            assert rec["state"] == "failed"
            assert rec["attempts"] == 2
            assert svc.metrics.counters["serve.jobs.retried"] == 1
            assert svc.snapshot()["inflight"] == 0
        finally:
            svc.stop()

    def test_healthy_partitioned_job_reports_progress_and_is_not_killed(
        self, tmp_path
    ):
        # a threads job reports progress every round like any engine, so
        # a stall deadline shorter than the whole run must not kill it
        svc = SolveService(tmp_path, workers=1, stall_deadline_s=0.75).start()
        try:
            job = svc.submit(
                {
                    "problem": "independent",
                    "instance": "u_c_hihi.0",
                    "engine": "threads",
                    "config": {"n_threads": 2, "ls_iterations": 5},
                    "budget": {"max_generations": 12},
                    "seed": 1,
                }
            )
            rec = _wait(
                lambda: (r := svc.job(job["id"]))["state"] in ("done", "failed") and r,
                timeout_s=60.0,
            )
            assert rec["state"] == "done", rec["error"]
            assert rec["progress"] is not None
            assert svc.metrics.counters.get("serve.jobs.stalled", 0) == 0
        finally:
            svc.stop()


class TestDrainAndRecovery:
    def test_drain_parks_inflight_job_and_restart_resumes_it(self, tmp_path):
        svc = SolveService(tmp_path, workers=1)
        svc.start()
        job = svc.submit(LONG_JOB)
        # wait until the job is demonstrably mid-flight, then drain
        _wait(lambda: (svc.job(job["id"])["progress"] or {}).get("generation", 0) >= 2)
        assert svc.drain(timeout_s=30.0) is True
        rec = svc.job(job["id"])
        assert rec["state"] == "parked"
        parked_gen = (rec["progress"] or {}).get("generation", 0)
        assert parked_gen < LONG_JOB["budget"]["max_generations"]
        ckpt = tmp_path / "checkpoints" / f"{job['id']}.ckpt"
        assert ckpt.is_file()
        assert svc.metrics.counters["serve.jobs.parked"] >= 1

        # a fresh service on the same spool resumes and completes it
        svc2 = SolveService(tmp_path, workers=1).start()
        try:
            rec = _wait(
                lambda: (r := svc2.job(job["id"]))["state"] in ("done", "failed") and r,
                timeout_s=60.0,
            )
            assert rec["state"] == "done", rec["error"]
            assert rec["resumed"] is True
            assert rec["result"]["generations"] == LONG_JOB["budget"]["max_generations"]
            assert svc2.metrics.counters["serve.jobs.recovered_with_checkpoint"] == 1
        finally:
            svc2.stop()

    def test_queued_jobs_survive_drain_and_complete_on_restart(self, tmp_path):
        svc = SolveService(tmp_path, workers=1)
        svc.start()
        first = svc.submit(LONG_JOB)
        queued = [svc.submit(dict(FAST_JOB, seed=i))["id"] for i in range(2)]
        _wait(lambda: svc.job(first["id"])["state"] == "running")
        assert svc.drain(timeout_s=30.0) is True
        assert all(svc.job(i)["state"] == "queued" for i in queued)

        svc2 = SolveService(tmp_path, workers=2).start()
        try:
            _wait(
                lambda: all(
                    svc2.job(i)["state"] == "done" for i in [first["id"], *queued]
                ),
                timeout_s=60.0,
            )
        finally:
            svc2.stop()
