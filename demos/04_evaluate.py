"""Detection metrics: AUC-ROC, argmax step accuracy, score histograms, and
the embedding distance diagnostics that `masc diag` reports."""

from masc import (
    BackboneSpec,
    EmbedderSpec,
    ScoredStep,
    TrainConfig,
    compute_metrics,
    embed_trajectory,
    embedding_distance_diagnostics,
    score_histogram,
    score_trajectory,
    train,
)
from masc.synthetic import make_anomaly_corpus, make_normal_corpus

embedder = EmbedderSpec(kind="hashing", dimension=32)
config = TrainConfig(
    epochs=8, lr=1e-3, lam=0.2, seed=0, d_h=64, embedder=embedder,
    backbone=BackboneSpec(hidden_dim=64, layers=2, seed=0),
)
model, _ = train(config, make_normal_corpus(60, seed=100, T=6))

# Score a labeled test set: each trajectory carries one planted error step.
test_set = make_anomaly_corpus(40, seed=200, T=6, early_fraction=0.5)
scored, step_rows = [], []
for trajectory in test_set:
    q_vec, step_embs = embed_trajectory(embedder, trajectory)
    step_rows.append(step_embs)
    for verdict, step in zip(
        score_trajectory(model, q_vec, step_embs, 1.0, 1.0), trajectory.steps
    ):
        scored.append(
            ScoredStep(trajectory.id, verdict.t, verdict.score, step.label)
        )

report = compute_metrics(scored)
print(f"AUC-ROC:              {report.auc_roc:.4f}")
print(f"step accuracy (argmax localization): {report.step_accuracy:.4f}")
print(f"steps scored: {report.n_steps} across {report.n_trajectories} trajectories\n")

print("score histogram (normal vs error):")
print(score_histogram(scored, bins=10).to_csv())

# How far apart the classes sit in the step rows themselves, with no history:
# the distance between the normal and error means against the mean distance
# of normal rows to their mean, for the raw rows and for each row joined with
# its nearest neighbor in the same trajectory.
raw, nn_augmented = embedding_distance_diagnostics(test_set, step_rows)
for name, diag in (("raw rows", raw), ("rows + nearest neighbor", nn_augmented)):
    relation = "above" if diag.inter > diag.intra else "not above"
    print(f"{name}: inter-class distance {diag.inter:.3f} is {relation} "
          f"the intra-class spread {diag.intra:.3f}")
