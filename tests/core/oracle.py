"""Direct-execution study oracle for the sweep-engine tests.

Runs a study the long way: ``Filter.execute`` on a freshly generated
dataset, the profile scaled to ``n_cycles`` by hand, ``Processor.run``
per cap, ``make_run_point``.  It never touches an op ledger,
``profile_from_ledger`` or a cache, so the engine's ledger → profile →
price path is checked against code it does not share.
"""

from repro.core.runner import StudyResult, make_run_point
from repro.data.generators import make_dataset
from repro.machine.simulator import Processor
from repro.viz import ALGORITHMS
from repro.workload import WorkProfile


def direct_study(config, *, n_cycles, seed=7, dataset_kind="blobs"):
    processor = Processor()
    default_cap = config.default_cap_w
    points = []
    for algorithm in config.algorithms:
        for size in config.sizes:
            dataset = make_dataset(size, kind=dataset_kind, seed=seed)
            one = ALGORITHMS[algorithm]().execute(dataset).profile
            profile = WorkProfile(name=f"{algorithm}@{size}", n_elements=one.n_elements)
            profile.segments = [s.scaled(n_cycles) for s in one.segments]
            base = processor.run(profile, default_cap)
            for cap in config.caps_w:
                run = base if cap == default_cap else processor.run(profile, cap)
                points.append(make_run_point(algorithm, size, cap, run, base, default_cap))
    return StudyResult(config_name=config.name, points=points)
