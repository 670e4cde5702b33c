"""T1 fixture: unguarded tracer recording calls on the hot path."""


class Scheduler:
    def __init__(self, runtime):
        self.runtime = runtime
        self.tracer = None
        self.rank = 0

    def execute(self, msg):
        rec = self.runtime.tracer
        rec.begin(self.rank, "sched")  # bad: no `is not None` guard
        self.tracer.mark(self.rank, "poll")  # bad: attribute receiver, unguarded

    def deliver(self, msg, tracer):
        if tracer is not None:
            tracer.msg_recv(msg.msg_id, self.rank)
        else:
            tracer.begin(self.rank, "comm")  # bad: guarded branch is the OTHER one

    def notify(self, tr):
        tr.mark(self.rank, "fault")  # bad: no guard anywhere
