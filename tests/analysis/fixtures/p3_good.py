"""P3 good: the public Environment API schedules everything."""


def signal_now(env, ev):
    ev.succeed()


def reschedule(runtime, when, value):
    return runtime.env.timeout(when - runtime.env.now, value)


def current_time(env):
    return env.now


def running(runtime):
    return runtime.env.active_process


def tick(clk):
    # A fake clock is not an Environment: its owner sets it.
    clk.now = clk.now + 1.0
