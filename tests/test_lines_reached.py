import inspect
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))

import lines_reached  # noqa: E402
import same_outputs  # noqa: E402
from layoutdiffusion.data import make_synthetic_dataset  # noqa: E402

SRC = os.path.join(ROOT, "src", "layoutdiffusion")


def line_of(path, text):
    with open(path) as fh:
        return 1 + next(i for i, line in enumerate(fh) if text in line)


def test_function_lines_are_the_bodies_without_def_module_or_class_lines(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("X = 1\n"                      # 1
                    "class K:\n"                   # 2
                    "    Y = 2\n"                  # 3
                    "    def f(self, a):\n"        # 4
                    "        b = [a * 2\n"         # 5
                    "             for _ in 'x']\n"  # 6
                    "        return b\n"           # 7
                    "g = lambda: 3\n")             # 8
    assert lines_reached.function_lines(str(path)) == {5, 6, 7}


def test_a_three_step_matrix_reaches_synthesis_but_not_the_empty_dataset_refusal(tmp_path):
    matrix = [same_outputs.MATRIX[0], same_outputs.MATRIX[3],
              ("03-sample", "cli", ["sample", "--checkpoint", "04-cat.ckpt", "--labels", "0,1",
                                    "--num-samples", "2", "--seed", "5", "-o", "03-s.json"])]
    reached = lines_reached.trace_matrix(ROOT, tmp_path, matrix)
    missed = lines_reached.unreached(ROOT, reached)
    data, diffusion = os.path.join(SRC, "data.py"), os.path.join(SRC, "diffusion.py")
    source, start = inspect.getsourcelines(make_synthetic_dataset)
    synth_return = start + len(source) - 1
    assert source[-1].strip().startswith("return Dataset(")
    assert synth_return in lines_reached.function_lines(data)
    assert synth_return in reached[data]
    assert synth_return not in missed[data]
    empty = line_of(diffusion, 'raise DataError("cannot train on an empty dataset")')
    assert empty in lines_reached.function_lines(diffusion)
    assert empty in missed[diffusion]
