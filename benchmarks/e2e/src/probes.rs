//! Layers the round loop's spans cannot reach, timed in isolation at the
//! workload's own shapes: one suffix training batch, the two matrix
//! products a round is made of, an empty worker-pool dispatch, and the wire
//! codec (which no round calls today; it is measured so that a change that
//! wires it in has a baseline).

use crate::workloads::Inputs;
use fedft_core::comm::{decode_update, encode_update};
use fedft_core::{ClientUpdate, ExecutionBackend, FlError, Simulation};
use fedft_nn::{FreezeLevel, Sgd};
use fedft_tensor::{init, parallel, pool, rng};
use std::hint::black_box;
use std::time::Instant;

/// Calls per probe. Each is far above the timer's resolution, so a hundred
/// give a stable median.
const CALLS: usize = 100;
/// One-round runs timed for the cold first round.
const FIRST_ROUND_RUNS: usize = 3;

/// Microseconds per call, one entry per call.
pub struct Probes {
    pub train_batch_us: Vec<f64>,
    pub matmul_train_us: Vec<f64>,
    pub matmul_eval_us: Vec<f64>,
    pub pool_dispatch_us: Vec<f64>,
    pub encode_us: Vec<f64>,
    pub decode_us: Vec<f64>,
    pub update_bytes: usize,
    /// Whether decoding an encoded update gave the update back.
    pub codec_round_trips: bool,
    /// Wall milliseconds of `FIRST_ROUND_RUNS` one-round `Simulation::run`s,
    /// each on a fresh pool and therefore a cold cache.
    pub first_round_ms: Vec<f64>,
}

fn time_calls<T>(calls: usize, mut f: impl FnMut() -> T) -> Vec<f64> {
    (0..calls)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

/// Width of the first trainable layer's output under `freeze`.
fn first_trainable_width(inputs: &Inputs, freeze: FreezeLevel) -> usize {
    let cfg = inputs.model.config();
    match freeze {
        FreezeLevel::Full => cfg.hidden_low,
        FreezeLevel::Large => cfg.hidden_mid,
        FreezeLevel::Moderate => cfg.hidden_up,
        FreezeLevel::Classifier => cfg.num_classes,
    }
}

pub fn run(inputs: &Inputs, sample_update: &ClientUpdate) -> Result<Probes, FlError> {
    let config = &inputs.config;
    let freeze = config.freeze;
    let test = inputs.data.test();
    let batch_rows: Vec<usize> = (0..config.batch_size.min(test.len())).collect();
    let batch = test.features().select_rows(&batch_rows);
    let batch_labels = &test.labels()[..batch_rows.len()];
    let boundary = inputs.model.forward_frozen(freeze, &batch)?;

    // Client work runs single-threaded inside the parallel executors'
    // workers; under the sequential executor the kernels may fan out.
    let client_side = |f: &mut dyn FnMut() -> Vec<f64>| {
        if config.execution == ExecutionBackend::Sequential {
            f()
        } else {
            parallel::single_threaded(f)
        }
    };

    let mut suffix = inputs.model.trainable_suffix(freeze);
    let mut optimizer = Sgd::new(config.sgd)?;
    let mut train_error = None;
    let train_batch_us = client_side(&mut || {
        time_calls(CALLS, || {
            if let Err(e) = suffix.train_batch(&boundary, batch_labels, &mut optimizer) {
                train_error = Some(e);
            }
        })
    });
    if let Some(e) = train_error {
        return Err(e.into());
    }

    let mut r = rng::rng_for(config.seed, "bench-probe");
    let weights_train = init::normal(
        &mut r,
        boundary.cols(),
        first_trainable_width(inputs, freeze),
        0.0,
        0.1,
    );
    let matmul_train_us = client_side(&mut || {
        time_calls(CALLS, || {
            boundary
                .matmul(&weights_train)
                .expect("shapes chosen to agree")
        })
    });
    let weights_eval = init::normal(
        &mut r,
        test.feature_dim(),
        inputs.model.config().hidden_low,
        0.0,
        0.1,
    );
    let matmul_eval_us = time_calls(CALLS, || {
        test.features()
            .matmul(&weights_eval)
            .expect("shapes chosen to agree")
    });

    let workers = pool::hardware_threads();
    let pool_dispatch_us = time_calls(CALLS, || pool::run_chunks(workers, workers, |_| ()));

    let encoded = encode_update(sample_update);
    let encode_us = time_calls(CALLS, || encode_update(sample_update));
    let decode_us = time_calls(CALLS, || decode_update(&encoded));
    let codec_round_trips = decode_update(&encoded)? == *sample_update;

    let one_round = Simulation::new(config.clone().with_rounds(1))?;
    let mut first_round_ms = Vec::with_capacity(FIRST_ROUND_RUNS);
    for _ in 0..FIRST_ROUND_RUNS {
        let start = Instant::now();
        black_box(one_round.run(&inputs.data, &inputs.model)?);
        first_round_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }

    Ok(Probes {
        train_batch_us,
        matmul_train_us,
        matmul_eval_us,
        pool_dispatch_us,
        encode_us,
        decode_us,
        update_bytes: encoded.len(),
        codec_round_trips,
        first_round_ms,
    })
}
