"""Every function and method of src/levyrefract is reached by a subcommand.

Code in src/ is what the program runs; a function that only the tests call
belongs in tests/.  The guard traces, under sys.setprofile at threads = 1:

- every subcommand on both shipped configs at N = 16, K = 50 and T = 5,
  then again with control.alpha = inf and task.method = direct;
- one check-properties run per mark law of the config grammar;
- one main() call on a bad config.

Each function and method defined in a module of the package must be called
in that run, save the EXEMPT ones, each listed with its reason.
"""

import inspect
import sys

import levyrefract
from levyrefract import cli_reporting

from oracles import reference_config_text

SMALL = {"mc.N": "16", "grid.K": "50", "grid.T": "5"}
# one law of each name the config grammar knows, as the up-jump component
MARK_LAWS = {"uniform": "0, 1", "exponential": "2", "weibull": "2, 1",
             "pointmass": "0.5", "hyperexponential": "0.5, 1, 0.5, 3"}

EXEMPT = {
    **{"levy_model.MarkDistribution." + name: "interface stub: every law overrides it"
       for name in ("mean", "truncated_mean", "char", "sample")},
    "levy_model.InvalidParameter.__reduce__":
        "runs only when a forked worker sends the error back, so never at threads = 1",
}


def defined_functions() -> dict:
    """{code object: 'module.qualname'} of every function and method written
    in a module of the package: module-level functions, and the methods,
    properties, static and class methods of its classes.  Code a decorator
    generates (dataclass and NamedTuple methods) is left out."""
    found = {}
    for name in levyrefract.__all__:
        mod = getattr(levyrefract, name)
        members = []
        for obj in vars(mod).values():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                members.append(obj)
            elif inspect.isclass(obj):
                for attr in vars(obj).values():
                    if isinstance(attr, property):
                        members += [f for f in (attr.fget, attr.fset, attr.fdel) if f]
                    elif isinstance(attr, (staticmethod, classmethod)):
                        members.append(attr.__func__)
                    elif inspect.isfunction(attr):
                        members.append(attr)
        for fn in members:
            if fn.__code__.co_filename == mod.__file__:
                found[fn.__code__] = "%s.%s" % (name, fn.__qualname__)
    return found


def run_everything(tmp_path):
    """Every run the module docstring lists, through main(), as the CLI
    makes it; returns the exit code of the bad config."""
    runs = []
    for case in (1, 2):
        for extra in ({}, {"control.alpha": "inf", "task.method": "direct"}):
            runs += [(sub, reference_config_text(case, **SMALL, **extra))
                     for sub in cli_reporting.SUBCOMMANDS]
    for law, params in MARK_LAWS.items():
        runs.append(("check-properties", reference_config_text(
            1, **SMALL, **{"model.jump1.dist": law, "model.jump1.params": params})))
    for i, (sub, text) in enumerate(runs):
        cfg = tmp_path / ("run%d.cfg" % i)
        cfg.write_text(text)
        cli_reporting.main([sub, "--config", str(cfg), "--threads", "1", "--desk-scale",
                            "--out", str(tmp_path / ("run%d" % i))])
    # a uniform law with its ends swapped, which the law itself refuses
    bad = reference_config_text(1, **SMALL, **{"model.jump1.params": "1, 0"})
    return cli_reporting.main(["validate", "--config", bad, "--out", str(tmp_path / "bad")])


def test_every_function_in_src_is_reached_by_a_subcommand(tmp_path):
    functions = defined_functions()
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    old = sys.getprofile()
    sys.setprofile(profile)
    try:
        bad = run_everything(tmp_path)
    finally:
        sys.setprofile(old)
    assert bad == 2
    names = set(functions.values())
    assert set(EXEMPT) <= names, "a stale exemption"
    unreached = sorted(name for code, name in functions.items()
                       if code not in called and name not in EXEMPT)
    assert unreached == [], "functions in src/ that no subcommand calls: %s" % unreached
    assert not {functions[c] for c in called if c in functions} & set(EXEMPT)


def test_the_guard_sees_methods_and_properties():
    names = set(defined_functions().values())
    assert {"estimation.nu_curve", "levy_model.RngStream.id", "levy_model.Uniform.sample",
            "levy_model.EventColumns.side_by_side", "cli_reporting.main"} <= names
    # a dataclass's generated __init__ is not code of the module
    assert "levy_model.RngStream.__init__" not in names


def test_every_law_of_the_grammar_is_run():
    assert set(MARK_LAWS) == set(cli_reporting._DISTS)
