# fbcheck-fixture-path: src/repro/store/locked_bad.py
"""FB-LOCKED must fail: guarded state touched outside its lock.

Every line that must be flagged ends with a ``<- FB-LOCKED`` marker.
"""
import threading


class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self._other = threading.Lock()
        self.total = 0  # guarded-by: self._lock
        self.ctx = None  # guarded-by: self._lock

    def bump(self):
        self.total += 1  # <- FB-LOCKED

    def racy_read(self):
        if self.total > 0:  # <- FB-LOCKED
            with self._lock:
                return self.total
        return 0

    def after_the_with_ends(self):
        with self._lock:
            current = self.total
        return self.total + current  # <- FB-LOCKED

    def lock_in_one_branch(self, flag):
        if flag:
            with self._lock:
                self.total += 1
        else:
            self.total -= 1  # <- FB-LOCKED
        return self.total  # <- FB-LOCKED

    def nested_def_inside_the_with(self):
        with self._lock:
            def later():
                return self.total  # <- FB-LOCKED
            return later

    def lambda_inside_the_with(self):
        with self._lock:
            return lambda: self.total  # <- FB-LOCKED

    def finally_after_the_with(self):
        with self._lock:
            try:
                self.total += 1
            finally:
                self.total -= 1
        try:
            return 1
        finally:
            self.total += 1  # <- FB-LOCKED

    def _wrong_helper(self):  # holds-lock: self._other
        self.total += 1  # <- FB-LOCKED

    def the_with_header_itself(self):
        with self._lock, self.ctx:  # <- FB-LOCKED
            pass
        with self._other:
            self.total += 1  # <- FB-LOCKED

    def loop_test_outside_the_with(self):
        while self.total:  # <- FB-LOCKED
            with self._lock:
                self.total -= 1
