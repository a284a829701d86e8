"""A naive reference pipeline: the two-stage method stated plainly.

It predicts model by model, shares no prediction block, reuses no model
and fits every fold, built only from ``fit_learner``, ``predict``,
``rmse``, ``select_descriptors``, ``derive_seed`` and the config's
split plans and training rows. It covers runs in which no task fails and
targets are not normalized. ``run_pipeline`` must score every such config
as this does, byte for byte.
"""

import numpy as np

from crossrep.engine import ExtrinsicMatrix, select_descriptors
from crossrep.evaluation import CvResult, Representation
from crossrep.learners import fit_learner, predict, rmse
from crossrep.pipeline import ExperimentResult
from crossrep.seeding import derive_seed


def _cv(config, task, features, representation):
    plan, spec, y = config.plans[task.task_id], config.final_spec, task.targets
    scores = []
    for f in range(plan.n_splits):
        train, test = plan.split(f)
        model = fit_learner(spec, features[train], y[train],
                            seed=derive_seed(spec.seed, "cv", task.task_id, f))
        scores.append(rmse(predict(model, features[test]), y[test]))
    return CvResult(task.task_id, tuple(scores), representation, spec.label, plan.digest, 0)


def _capped(config, columns, sources, task_id, tag):
    ext = ExtrinsicMatrix(np.column_stack(columns), sources, task_id)
    if config.descriptor_cap is None:
        return ext
    return select_descriptors(ext, config.descriptor_cap, derive_seed(config.seed, tag, task_id))


def reference_result(config) -> ExperimentResult:
    tasks, spec = config.collection.tasks, config.transformer_spec
    rows = {t.task_id: config.training_rows(t) for t in tasks}
    stage1 = {t.task_id: fit_learner(spec, t.features[rows[t.task_id]],
                                     t.targets[rows[t.task_id]],
                                     seed=derive_seed(spec.seed, "stage1", t.task_id))
              for t in tasks}
    results, stage2, sources = [], {}, {}
    for t in tasks:
        others = tuple(s for s in stage1 if s != t.task_id)
        ext = _capped(config, [predict(stage1[s], t.features) for s in others], others,
                      t.task_id, "cap")
        feats = np.hstack([t.features, ext.values]) if config.augment else ext.values
        results.append(_cv(config, t, t.features, Representation.original()))
        results.append(_cv(config, t, feats, Representation.transformed(spec, 1)))
        if config.order == 2:
            r = rows[t.task_id]
            stage2[t.task_id] = fit_learner(config.final_spec, ext.values[r], t.targets[r],
                                            seed=derive_seed(config.seed, "stage2", t.task_id))
            sources[t.task_id] = ext.source_model_ids
    for t in tasks if config.order == 2 else ():
        others = tuple(s for s in stage2 if s != t.task_id)
        columns = [predict(stage2[s], np.column_stack([predict(stage1[m], t.features)
                                                       for m in sources[s]]))
                   for s in others]
        ext2 = _capped(config, columns, others, t.task_id, "cap2")
        results.append(_cv(config, t, ext2.values, Representation.transformed(spec, 2)))
    return ExperimentResult(config.echo(), tuple(results), (), {})
