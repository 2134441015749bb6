"""confga: conformal geometric algebra for Cl(4,1).

Dense multivector arithmetic over arbitrary Cl(p,q) up to eight generators,
the conformal model of 3D space (points, point pairs, circles, spheres,
lines, planes, flat points), reflection and motion versors, a trainable
geometric neuron, and an expression-evaluating command line tool.
"""

from .algebra import (
    Algebra,
    Multivector,
    algebra,
    dual,
    exp_special,
    format_multivector,
    geometric_product,
    grade_involution,
    grade_projection,
    grade_set,
    left_contraction,
    outer_product,
    reverse,
    vector_inverse,
    versor_inverse,
)
from .conformal import (
    ALG,
    E,
    I3,
    I5,
    ConformalObject,
    classify,
    classify_batch,
    e0,
    e1,
    e2,
    e3,
    einf,
    embed_point,
    embed_points,
    euclid_bivector,
    euclid_vector,
    extract_point,
    from_null_coeffs,
    make_circle,
    make_flat_point,
    make_line,
    make_plane_opns,
    make_point_pair,
    make_sphere_opns,
    point_distance,
    round_params,
    sphere_ipns,
    to_null_coeffs,
    whole_space,
)
from .errors import (
    DegenerateError,
    DivergenceError,
    DomainError,
    FlatObjectError,
    GAError,
    GradeError,
    MetricError,
    MixedParityError,
    NotABladeError,
    NotAPointError,
    NotExponentiableError,
    NotVersorError,
    NullVectorError,
    ParityModeError,
    ParseError,
    PointAtInfinityError,
    SignatureMismatchError,
    SingularVersorError,
    SingularWeightError,
    UnboundNameError,
    UnknownObjectError,
)
from .neuron import (
    GeometricNeuron,
    Sample,
    TrainConfig,
    forward,
    from_versor,
    generate_dataset,
    gradient,
    loss,
    new_neuron,
    train,
)
from .expr import default_env, eval_expression, render
from .oracle import oracle_product
from .scene import Scene, mv_entries, read_scene, scene_from_dict, scene_to_json, write_scene
from .versor import (
    Versor,
    apply,
    compose,
    make_versor,
    motor,
    reflector_line,
    reflector_plane,
    reflector_point,
    reflector_sphere,
    rotor,
    scalor,
    translator,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
