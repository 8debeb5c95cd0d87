"""Figure 2: throughput vs GPU placement for five architectures."""


def test_fig02_placement_throughput(replay_figure):
    figure = replay_figure("fig02")
    rows = {row["model"]: row for row in figure.rows}
    # Paper shape: VGG-family halves when split 2x2, ResNet family and
    # Inception barely move.
    assert rows["vgg16"]["slowdown"] < 0.6
    assert rows["vgg19"]["slowdown"] < 0.6
    assert rows["alexnet"]["slowdown"] < 0.75
    assert rows["inceptionv3"]["slowdown"] > 0.9
    assert rows["resnet50"]["slowdown"] > 0.9
    # Magnitudes in the paper's range (hundreds of images/sec at 4 GPUs).
    assert 100 <= rows["resnet50"]["one_server_4gpu"] <= 500
