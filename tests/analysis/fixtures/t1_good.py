"""T1 fixture: properly guarded tracer calls (and non-tracer lookalikes)."""


class Scheduler:
    def __init__(self, runtime):
        self.runtime = runtime
        self.tracer = None
        self.rank = 0

    def execute(self, msg):
        rec = self.runtime.tracer
        if rec is not None:
            rec.begin(self.rank, "sched")
            rec.msg_exec(msg.msg_id, self.rank, 0, 1)

    def deliver(self, msg):
        if self.tracer is not None and msg.msg_id is not None:
            self.tracer.msg_recv(msg.msg_id, self.rank)

    def poll(self, tr):
        if tr is None:
            return
        tr.mark(self.rank, "poll")

    def flush(self, tracer):
        tracer is not None and tracer.end(self.rank)

    def finish(self, tracer):
        # Lifecycle methods run from setup/teardown code, not hot paths.
        tracer.register_track(99, "commthread")
        tracer.finish()

    def stop(self, recorder):
        # Not a tracer name: `end` on other receivers stays unflagged.
        recorder.end(self.rank)
