"""P3 bad: reaching into the Environment's scheduling internals."""

import heapq


def sneak_in_front(env, ev):
    env._imm.appendleft((env.now, 0, ev))


def reschedule(runtime, ev, when):
    heapq.heappush(runtime.env._queue, (when, 0, ev))


def rewind(env):
    env.now = 0.0


def impersonate(runtime, proc):
    runtime.env.active_process = proc
