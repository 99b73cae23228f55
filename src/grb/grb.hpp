// Umbrella header for the grb library — a from-scratch GraphBLAS-compatible
// sparse linear algebra engine. Include this to get containers, operator
// catalogues and all operation kernels.
//
// Quick tour:
//   grb::Matrix<T>, grb::Vector<T>       — CSR matrix / sorted-coo vector
//   grb::plus_times_semiring<T>() etc.   — semiring catalogue
//   grb::mxm / mxv                       — products over a semiring
//   grb::eWiseAdd / eWiseMult            — union / intersection element-wise
//   grb::apply / select / reduce_*       — maps, filters, folds
//   grb::extract / assign / transpose    — structural ops
//   grb::set_threads(n)                  — OpenMP parallelism control
//
// All operations follow the GraphBLAS output-merge model C<M> (+)= T with
// optional mask, accumulator and descriptor (replace/complement/structure).
#pragma once

#include "grb/apply.hpp"
#include "grb/assign.hpp"
#include "grb/binary_ops.hpp"
#include "grb/context.hpp"
#include "grb/ewise.hpp"
#include "grb/extract.hpp"
#include "grb/matrix.hpp"
#include "grb/mxm.hpp"
#include "grb/mxv.hpp"
#include "grb/reduce.hpp"
#include "grb/select.hpp"
#include "grb/semiring.hpp"
#include "grb/transpose.hpp"
#include "grb/types.hpp"
#include "grb/vector.hpp"
