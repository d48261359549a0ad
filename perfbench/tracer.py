"""In-memory span tracer installed around library functions from outside.

Each wrapped call records a span (name, start, end, parent).  Per-name
call counts, total time and self time (duration minus the time covered
by child spans) are accumulated as spans close, so they stay exact even
when the raw span list is capped.  The tracer is single-threaded, like
the workloads it traces.
"""

import json
import time

# Public functions of the library that the traced run wraps, by module.
TRACED_FUNCTIONS = {
    "specfun": ("reg_inc_beta", "log_reg_inc_beta", "reg_upper_gamma_q",
                "log_reg_upper_gamma_q", "log_reg_lower_gamma_p", "log_gamma",
                "log_binomial"),
    "race": ("attacker_success_closed", "nakamoto_probability", "conditional_probability",
             "confirmations_required", "recover_p_by_quadrature", "kappa_density",
             "deviation_tail"),
    "asymptotics": ("z0_sharp", "z0_sufficient", "kappa_threshold"),
    "sim": ("estimate_success",),
}


class Tracer:
    def __init__(self, error_type, span_cap=100_000):
        self.error_type = error_type
        self.span_cap = span_cap
        self.names = []
        self._ids = {}
        self.calls = []
        self.total = []
        self.self_time = []
        self.escaped_errors = []  # error_type exits that leave the callee's module
        self._active = []
        self._stack = []  # [name id, time covered by children]
        self._watch = {}  # child id -> ancestor ids whose nesting is counted
        self.nested = {}  # (child name, ancestor name) -> calls inside ancestor
        self.spans = []
        self.dropped = 0

    def _id(self, name):
        fid = self._ids.get(name)
        if fid is None:
            fid = self._ids[name] = len(self.names)
            self.names.append(name)
            for lst in (self.calls, self.total, self.self_time,
                        self.escaped_errors, self._active):
                lst.append(0)
        return fid

    def count_nested(self, child, ancestor):
        """Count calls of ``child`` made while ``ancestor`` is on the stack."""
        self._watch.setdefault(self._id(child), []).append(self._id(ancestor))
        self.nested[(child, ancestor)] = 0

    def wrap(self, name, fn, name_of=None):
        """Return ``fn`` wrapped in a span; ``name_of(*args)`` names it per call."""
        fixed = None if name_of else self._id(name)
        stack, active, watch = self._stack, self._active, self._watch
        clock = time.perf_counter
        error_type = self.error_type

        def wrapper(*args, **kwargs):
            fid = fixed if name_of is None else self._id(name_of(*args))
            for anc in watch.get(fid, ()):
                if active[anc]:
                    key = (self.names[fid], self.names[anc])
                    self.nested[key] += 1
            frame = [fid, 0.0]
            stack.append(frame)
            active[fid] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except error_type:
                parent = stack[-2][0] if len(stack) > 1 else None
                if parent is None or _module(self.names[parent]) != _module(self.names[fid]):
                    self.escaped_errors[fid] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                active[fid] -= 1
                dur = t1 - t0
                self.calls[fid] += 1
                self.total[fid] += dur
                self.self_time[fid] += dur - frame[1]
                parent = None
                if stack:
                    stack[-1][1] += dur
                    parent = stack[-1][0]
                if len(self.spans) < self.span_cap:
                    self.spans.append((fid, t0, t1, parent))
                else:
                    self.dropped += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def stats(self):
        return {
            "functions": {
                name: {
                    "calls": self.calls[i],
                    "total_s": self.total[i],
                    "self_s": self.self_time[i],
                    "escaped_errors": self.escaped_errors[i],
                }
                for i, name in enumerate(self.names)
            },
            "nested": [[c, a, n] for (c, a), n in self.nested.items()],
        }

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump(
                {"names": self.names, "dropped": self.dropped,
                 "columns": ["name_id", "start_s", "end_s", "parent_name_id"],
                 "spans": self.spans},
                fh,
            )


def _module(name):
    return name.split(".", 1)[0]
