"""Which ``dsb`` functions each test calls, and which tests a mutant needs.

As a pytest plugin (``-p callmap`` with scripts/ on the path, and
``--call-map=PATH``) it records the profiler's 'call' events for code in the
imported ``dsb`` package, keyed ``"<file under dsb>:<co_firstlineno>"``, and
writes them as JSON:

    {"calls": {sink: [key, ...]},     # sink: a test's node id, a fixture's name, or "" outside both
     "tests": {node id: [fixture name, ...]},   # in run order; fixtures by name or getfixturevalue
     "children": [sink, ...]}         # sinks during which a subprocess.Popen was built

A call made while a fixture sets up counts for that fixture (and for whatever
set it up), so a session fixture's calls count for every test that requests it.

``function_key`` and ``select`` then turn a mutant into the tests to run
against it; ``scripts/mutants.py --all`` uses them.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
import threading
from collections import defaultdict

import pytest


def function_key(path, source, old):
    """``"path:co_firstlineno"`` of the innermost function whose body holds all
    of ``old`` in ``source``, or None if ``old`` is not inside a function body
    (a module or class body, a ``def`` line, a default or a decorator)."""
    def position(offset):  # (line, UTF-8 column), as ast counts them
        before = source[:offset]
        return before.count("\n") + 1, len(before[before.rfind("\n") + 1:].encode())

    first = position(source.index(old) + len(old) - len(old.lstrip()))
    last = position(source.index(old) + len(old.rstrip()))
    inside = [node for node in ast.walk(ast.parse(source))
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and (node.body[0].lineno, node.body[0].col_offset) <= first
              and last <= (node.end_lineno, node.end_col_offset)]
    if not inside:
        return None
    node = max(inside, key=lambda n: (n.body[0].lineno, n.body[0].col_offset))
    return f"{path}:{min([node.lineno] + [d.lineno for d in node.decorator_list])}"


def select(calls, key):
    """The node ids, in run order, of the tests that call ``key`` (or request a
    fixture that does) and of every test that starts a subprocess, whose calls
    the map cannot see; None, meaning the whole suite, when ``key`` is None,
    is called outside every test, or no test calls it."""
    if key is None or key in calls["calls"].get("", ()):
        return None
    hit = {sink for sink, keys in calls["calls"].items() if key in keys}
    sinks = {test: {test, *fixtures} for test, fixtures in calls["tests"].items()}
    if not any(hit & s for s in sinks.values()):
        return None
    hit.update(calls["children"])
    return [test for test, s in sinks.items() if hit & s]


def pytest_addoption(parser):
    parser.addoption("--call-map", metavar="PATH", help="write each test's dsb calls here as JSON")


def pytest_configure(config):
    if config.getoption("call_map"):
        config.pluginmanager.register(Recorder(config.getoption("call_map")), "callmap-recorder")


class Recorder:
    def __init__(self, out):
        if "dsb" in sys.modules:  # its import-time calls would go unseen
            raise pytest.UsageError("dsb was imported before the call map started")
        self.out = out
        self.package = os.path.join(os.path.dirname(importlib.util.find_spec("dsb").origin), "")
        self.stack = [""]  # the sinks a call counts for: the test and the fixtures setting up
        self.calls = defaultdict(set)
        self.tests = {}  # node id -> the fixtures it requests, by name or by getfixturevalue
        self.children = set()
        popen_init, getfixturevalue = subprocess.Popen.__init__, pytest.FixtureRequest.getfixturevalue

        def recorded_init(popen, *args, **kwargs):
            self.children.update(self.stack)
            popen_init(popen, *args, **kwargs)

        def recorded_getfixturevalue(request, argname):
            self.tests.get(self.stack[0], set()).add(argname)
            return getfixturevalue(request, argname)

        subprocess.Popen.__init__ = recorded_init
        pytest.FixtureRequest.getfixturevalue = recorded_getfixturevalue
        threading.setprofile(self.profile)
        sys.setprofile(self.profile)

    def profile(self, frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(self.package):
            key = f"{frame.f_code.co_filename[len(self.package):]}:{frame.f_code.co_firstlineno}"
            for sink in self.stack:
                self.calls[sink].add(key)

    @pytest.hookimpl(wrapper=True)
    def pytest_runtest_protocol(self, item):
        self.tests[item.nodeid] = set(item.fixturenames)
        self.stack = [item.nodeid]
        try:
            return (yield)
        finally:
            self.stack = [""]

    @pytest.hookimpl(wrapper=True)
    def pytest_fixture_setup(self, fixturedef):
        self.stack.append(fixturedef.argname)
        try:
            return (yield)
        finally:
            self.stack.pop()

    def pytest_sessionfinish(self):
        sys.setprofile(None)
        threading.setprofile(None)
        with open(self.out, "w", encoding="utf-8") as fh:
            json.dump({"calls": {sink: sorted(keys) for sink, keys in self.calls.items()},
                       "tests": {test: sorted(fixtures) for test, fixtures in self.tests.items()},
                       "children": sorted(self.children)}, fh)
