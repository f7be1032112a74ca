#include "serve/serve_loop.h"

#include <algorithm>
#include <unordered_map>

#include "nn/checkpoint.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"
#include "pipeline/cache_policy.h"
#include "sampling/presample.h"
#include "util/errors.h"
#include "util/rng.h"
#include "util/timer.h"

namespace buffalo::serve {

namespace names = buffalo::obs::names;

const char *
responseStatusName(ResponseStatus status)
{
    switch (status) {
      case ResponseStatus::Ok: return "ok";
      case ResponseStatus::Shed: return "shed";
      case ResponseStatus::Expired: return "expired";
      case ResponseStatus::Failed: return "failed";
    }
    return "?";
}

Server::Server(const ServeOptions &options,
               const graph::Dataset &dataset)
    : options_(options),
      dataset_(dataset),
      sampler_(options.fanouts),
      admission_(options.queue_capacity),
      batcher_(options.model, options.fanouts, options.max_batch,
               options.byte_budget),
      plans_(options.prepared_depth < 1 ? 1 : options.prepared_depth),
      prepared_(options.prepared_depth < 1 ? 1
                                           : options.prepared_depth),
      budget_(options.byte_budget),
      start_(Clock::now())
{
    checkArgument(options_.fanouts.size() ==
                      static_cast<std::size_t>(
                          options_.model.num_layers),
                  "Server: fanouts must list one value per layer");
    checkArgument(options_.model.feature_dim == dataset.featureDim(),
                  "Server: model feature_dim != dataset featureDim");
    const std::size_t workers =
        options_.workers < 1 ? 1 : options_.workers;
    const std::size_t preps =
        options_.prep_threads < 1 ? 1 : options_.prep_threads;

    // The prep-path feature cache shares the training tier's policy
    // interface: the hot set is selected by --cache-policy, with the
    // presample pass seeded over *all* nodes (any node can arrive as
    // a request seed, unlike training where seeds come from
    // trainNodes()). Hits skip dataset.fillFeatures in prepare().
    if (options_.feature_cache_bytes > 0) {
        pipeline::FeatureCacheOptions cache_options;
        cache_options.capacity_bytes = options_.feature_cache_bytes;
        cache_options.feature_dim = dataset.featureDim();
        cache_options.store_payload = true;
        sampling::PresampleOptions presample;
        presample.num_batches = options_.presample_batches;
        presample.batch_size =
            options_.max_batch < 1 ? 1 : options_.max_batch;
        presample.seed =
            options_.seed ^ sampling::kPresampleSeedSalt;
        cache_options.policy = pipeline::makeCachePolicy(
            options_.cache_policy, dataset, options_.fanouts,
            graph::NodeList{}, presample);
        cache_ =
            std::make_unique<pipeline::FeatureCache>(cache_options);
        cache_->pinHotSet(dataset, options_.cache_pinned_nodes);
    }

    // Identical replicas: same seed, then the same checkpoint. Any
    // worker therefore produces bitwise-identical logits for a given
    // prepared batch.
    for (std::size_t w = 0; w < workers; ++w) {
        models_.push_back(train::makeModel(
            options_.model_kind, options_.model, options_.seed));
        if (!options_.checkpoint.empty())
            nn::loadCheckpointFile(options_.checkpoint,
                                   models_.back()->module());
    }

    // Queue-wait histograms (DESIGN.md, "Critical-path attribution"):
    // installed before any pipeline thread starts. Histogram handles
    // are process-stable and captured by value.
    obs::ReservoirHistogram *admit_wait =
        &obs::metrics().histogram(names::kHistQueueAdmitWaitMs);
    admission_.setWaitObserver([admit_wait](double seconds) {
        admit_wait->add(seconds * 1e3);
    });
    obs::ReservoirHistogram *plans_wait =
        &obs::metrics().histogram(names::kHistQueuePlansWaitMs);
    plans_.setWaitObserver([plans_wait](double seconds) {
        plans_wait->add(seconds * 1e3);
    });
    obs::ReservoirHistogram *prepared_wait =
        &obs::metrics().histogram(names::kHistQueuePreparedWaitMs);
    prepared_.setWaitObserver([prepared_wait](double seconds) {
        prepared_wait->add(seconds * 1e3);
    });

    active_preps_.store(preps, std::memory_order_relaxed);
    // buffalo-lint: allow(escape-this-capture) threads_ are joined by
    // stop() before ~Server tears members down
    threads_.emplace_back([this] { batcherLoop(); });
    for (std::size_t p = 0; p < preps; ++p)
        // buffalo-lint: allow(escape-this-capture) joined by stop()
        threads_.emplace_back([this] { prepLoop(); });
    for (std::size_t w = 0; w < workers; ++w)
        // buffalo-lint: allow(escape-this-capture) joined by stop()
        threads_.emplace_back([this, w] { workerLoop(w); });

    // Depth timeline over the serve queues; probes capture stable
    // member addresses by value and outlive nothing — the sampler is
    // stopped in shutdown() before the queues die.
    AdmissionQueue *admission = &admission_;
    pipeline::StageQueue<BatchPlan> *plans = &plans_;
    pipeline::StageQueue<PreparedBatch> *prepared = &prepared_;
    std::vector<obs::QueueDepthProbe> probes;
    probes.push_back(
        {"admit", [admission] { return admission->size(); }});
    probes.push_back({"plans", [plans] { return plans->size(); }});
    probes.push_back(
        {"prepared", [prepared] { return prepared->size(); }});
    depth_sampler_ =
        std::make_unique<obs::QueueDepthSampler>(std::move(probes));
}

Server::~Server()
{
    shutdown();
}

std::future<InferenceResponse>
Server::submit(graph::NodeId seed)
{
    InferenceRequest request;
    request.id =
        next_request_id_.fetch_add(1, std::memory_order_relaxed);
    request.seed = seed;
    request.submit_time = Clock::now();
    request.deadline =
        request.submit_time +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::milli>(
                options_.deadline_ms));

    PendingRequest pending(request);
    std::future<InferenceResponse> future = pending.takeFuture();
    stats_.onSubmitted();

    if (seed >= dataset_.graph().numNodes()) {
        stats_.onErrors(1);
        pending.fulfill(ResponseStatus::Failed, Clock::now());
        return future;
    }
    if (!admission_.tryPush(pending)) {
        stats_.onShed();
        pending.fulfill(ResponseStatus::Shed, Clock::now());
    }
    return future;
}

void
Server::batcherLoop()
{
    std::vector<PendingRequest> admitted;
    std::vector<PendingRequest> expired;
    for (;;) {
        admitted.clear();
        expired.clear();
        if (!admission_.popBatch(options_.queue_capacity, &admitted,
                                 &expired))
            break;
        if (!expired.empty()) {
            const Clock::time_point now = Clock::now();
            for (PendingRequest &request : expired)
                request.fulfill(ResponseStatus::Expired, now);
            stats_.onExpired(expired.size());
        }
        if (admitted.empty())
            continue;
        const Clock::time_point dequeued = Clock::now();
        util::StopWatch service_watch;
        for (BatchPlan &plan : batcher_.plan(std::move(admitted))) {
            plan.dequeue_time = dequeued;
            // push() fails only on close/abort; the dropped plan's
            // requests resolve to Failed via ~PendingRequest.
            const std::size_t size = plan.requests.size();
            if (!plans_.push(std::move(plan)))
                stats_.onErrors(size);
        }
        obs::metrics()
            .histogram(names::kHistQueueAdmitServiceMs)
            .add(service_watch.seconds() * 1e3);
        admitted.clear();
    }
    plans_.close();
}

Server::PreparedBatch
Server::prepare(BatchPlan plan) const
{
    // The span's item id links this plan's prep to its forward pass
    // (plan.id is read now; plan is moved into the result below).
    obs::Span span(names::kSpanServePrep, plan.id + 1);
    PreparedBatch prepared;

    // Sampling seeds must be unique; requests for the same node
    // share one ego network (and one logits row).
    graph::NodeList unique_seeds;
    std::unordered_map<graph::NodeId, std::size_t> seed_row;
    prepared.output_rows.reserve(plan.requests.size());
    for (const PendingRequest &request : plan.requests) {
        const graph::NodeId seed = request.request().seed;
        auto [it, inserted] =
            seed_row.emplace(seed, unique_seeds.size());
        if (inserted)
            unique_seeds.push_back(seed);
        prepared.output_rows.push_back(it->second);
    }

    // Per-plan RNG stream: sampling depends only on (seed, plan id),
    // never on which prep thread ran or what ran before it.
    util::Rng rng(options_.seed ^
                  (0x5EEDF00Dull + plan.id * 0x9E3779B97F4A7C15ull));
    auto sg = sampler_.sample(dataset_.graph(), unique_seeds, rng);

    graph::NodeList output_locals(unique_seeds.size());
    for (std::size_t i = 0; i < output_locals.size(); ++i)
        output_locals[i] = static_cast<graph::NodeId>(i);
    prepared.mb = generator_.generate(sg, output_locals);
    // A cache hit changes cost, never the prediction: served rows are
    // bitwise the ones a fresh fill writes.
    pipeline::stageThroughCache(cache_.get(), dataset_,
                                prepared.mb.inputNodes(),
                                &prepared.features);
    prepared.plan = std::move(plan);
    return prepared;
}

void
Server::prepLoop()
{
    while (auto plan = plans_.pop()) {
        const std::uint64_t charge = plan->estimated_bytes;
        const std::size_t size = plan->requests.size();
        if (!budget_.acquire(charge)) {
            // cancel() only fires on abort paths; fail the batch.
            stats_.onErrors(size);
            continue;
        }
        try {
            util::StopWatch service_watch;
            PreparedBatch batch = prepare(std::move(*plan));
            obs::metrics()
                .histogram(names::kHistQueuePlansServiceMs)
                .add(service_watch.seconds() * 1e3);
            batch.charged_bytes = charge;
            if (!prepared_.push(std::move(batch))) {
                budget_.release(charge);
                stats_.onErrors(size);
            }
        } catch (const std::exception &) {
            // The plan's requests resolve to Failed on destruction.
            budget_.release(charge);
            stats_.onErrors(size);
        }
    }
    if (active_preps_.fetch_sub(1, std::memory_order_acq_rel) == 1)
        prepared_.close();
}

void
Server::workerLoop(std::size_t worker_index)
{
    train::GnnModel &model = *models_[worker_index];
    while (auto batch = prepared_.pop()) {
        const std::size_t size = batch->plan.requests.size();
        stats_.onBatch(size);
        util::StopWatch service_watch;
        try {
            nn::Tensor logits;
            {
                obs::Span span(names::kSpanServeForward,
                               batch->plan.id + 1);
                logits = model.forwardInference(batch->mb,
                                                batch->features,
                                                nullptr);
            }
            const std::size_t classes = logits.cols();
            const Clock::time_point now = Clock::now();
            for (std::size_t i = 0; i < size; ++i) {
                const float *row = logits.data() +
                                   batch->output_rows[i] * classes;
                std::size_t best = 0;
                for (std::size_t c = 1; c < classes; ++c)
                    if (row[c] > row[best])
                        best = c;
                auto response =
                    batch->plan.requests[i].fulfillWithQueueTime(
                        ResponseStatus::Ok, now,
                        batch->plan.dequeue_time,
                        static_cast<std::int32_t>(best), row[best]);
                if (response)
                    stats_.onCompleted(*response);
            }
            obs::eventLog()
                .event(names::kEvServeBatch)
                .field("plan", batch->plan.id)
                .field("requests", static_cast<std::uint64_t>(size))
                .field("unique_seeds",
                       static_cast<std::uint64_t>(
                           batch->mb.outputNodes().size()))
                .field("estimated_bytes",
                       batch->plan.estimated_bytes);
        } catch (const std::exception &) {
            const Clock::time_point now = Clock::now();
            for (PendingRequest &request : batch->plan.requests)
                request.fulfill(ResponseStatus::Failed, now);
            stats_.onErrors(size);
        }
        obs::metrics()
            .histogram(names::kHistQueuePreparedServiceMs)
            .add(service_watch.seconds() * 1e3);
        budget_.release(batch->charged_bytes);
    }
}

void
Server::shutdown()
{
    if (shut_down_.exchange(true))
        return;
    admission_.close();
    for (std::thread &thread : threads_)
        thread.join();
    threads_.clear();
    if (depth_sampler_ != nullptr)
        depth_sampler_->stop(); // before the queues it probes die
    final_elapsed_seconds_.store(
        std::chrono::duration<double>(Clock::now() - start_).count(),
        std::memory_order_relaxed);
    stats_.publishGauges(elapsedSeconds(), admission_.maxOccupancy());
    if (cache_ != nullptr && cache_->enabled()) {
        const pipeline::FeatureCacheStats cache = cache_->stats();
        pipeline::publishCacheGauges(cache);
        obs::eventLog()
            .event(names::kEvCacheSnapshot)
            .field("policy", cache.policy)
            .field("hits", cache.hits)
            .field("misses", cache.misses)
            .field("hit_rate", cache.hitRate())
            .field("resident_nodes", cache.resident_nodes)
            .field("pinned_nodes", cache.pinned_nodes);
    }
}

double
Server::elapsedSeconds() const
{
    const double final_elapsed =
        final_elapsed_seconds_.load(std::memory_order_relaxed);
    if (final_elapsed > 0.0)
        return final_elapsed;
    return std::chrono::duration<double>(Clock::now() - start_)
        .count();
}

ServeSnapshot
Server::stats() const
{
    return stats_.snapshot(elapsedSeconds());
}

std::size_t
Server::maxQueueDepth() const
{
    return admission_.maxOccupancy();
}

} // namespace buffalo::serve
