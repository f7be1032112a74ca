/**
 * @file
 * Tests for the serving subsystem (DESIGN.md, "Serving"): admission
 * queue shedding and deadline expiry, batcher determinism, the
 * PendingRequest promise contract, bitwise parity of
 * forwardInference with the training forward across model kinds and
 * kernel thread counts, and an end-to-end Server smoke.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <vector>

#include "nn/gnn_model.h"
#include "serve/admission_queue.h"
#include "serve/batcher.h"
#include "serve/serve_loop.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "train/feature_loader.h"
#include "util/rng.h"

namespace buffalo::serve {
namespace {

InferenceRequest
makeRequest(std::uint64_t id, double deadline_ms = 1000.0)
{
    InferenceRequest request;
    request.id = id;
    request.seed = static_cast<graph::NodeId>(id % 7);
    request.submit_time = Clock::now();
    request.deadline =
        request.submit_time +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::milli>(deadline_ms));
    return request;
}

// --- PendingRequest promise contract ---------------------------------

TEST(PendingRequest, FulfillDeliversOnce)
{
    PendingRequest pending(makeRequest(7));
    auto future = pending.takeFuture();
    auto first = pending.fulfill(ResponseStatus::Ok, Clock::now(), 3,
                                 0.5f);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->predicted_class, 3);
    // Later fulfills are no-ops and report nullopt.
    EXPECT_FALSE(
        pending.fulfill(ResponseStatus::Failed, Clock::now())
            .has_value());
    auto response = future.get();
    EXPECT_EQ(response.id, 7u);
    EXPECT_EQ(response.status, ResponseStatus::Ok);
    EXPECT_TRUE(response.deadline_met);
}

TEST(PendingRequest, DroppedRequestResolvesToFailed)
{
    std::future<InferenceResponse> future;
    {
        PendingRequest pending(makeRequest(9));
        future = pending.takeFuture();
        // Destroyed without fulfillment: queue drop / shutdown path.
    }
    auto response = future.get();
    EXPECT_EQ(response.status, ResponseStatus::Failed);
    EXPECT_EQ(response.predicted_class, -1);
}

TEST(PendingRequest, MoveTransfersResponsibility)
{
    PendingRequest pending(makeRequest(11));
    auto future = pending.takeFuture();
    PendingRequest moved = std::move(pending);
    // The moved-from shell must not resolve the promise on destruction.
    EXPECT_TRUE(moved.fulfill(ResponseStatus::Ok, Clock::now(), 1,
                              1.0f)
                    .has_value());
    EXPECT_EQ(future.get().status, ResponseStatus::Ok);
}

// --- AdmissionQueue ---------------------------------------------------

TEST(AdmissionQueue, ShedsWhenFull)
{
    AdmissionQueue queue(2);
    PendingRequest a(makeRequest(1));
    PendingRequest b(makeRequest(2));
    PendingRequest c(makeRequest(3));
    EXPECT_TRUE(queue.tryPush(a));
    EXPECT_TRUE(queue.tryPush(b));
    // Full: the third push is refused and the request stays with the
    // caller, who can still deliver the Shed verdict.
    auto future = c.takeFuture();
    EXPECT_FALSE(queue.tryPush(c));
    EXPECT_TRUE(
        c.fulfill(ResponseStatus::Shed, Clock::now()).has_value());
    EXPECT_EQ(future.get().status, ResponseStatus::Shed);
    EXPECT_EQ(queue.size(), 2u);
    EXPECT_EQ(queue.maxOccupancy(), 2u);
}

TEST(AdmissionQueue, PopPartitionsExpiredRequests)
{
    AdmissionQueue queue(8);
    PendingRequest fresh(makeRequest(1, /*deadline_ms=*/60000.0));
    PendingRequest stale(makeRequest(2, /*deadline_ms=*/-1.0));
    EXPECT_TRUE(queue.tryPush(fresh));
    EXPECT_TRUE(queue.tryPush(stale));

    std::vector<PendingRequest> out;
    std::vector<PendingRequest> expired;
    EXPECT_TRUE(queue.popBatch(8, &out, &expired));
    ASSERT_EQ(out.size(), 1u);
    ASSERT_EQ(expired.size(), 1u);
    EXPECT_EQ(out[0].request().id, 1u);
    EXPECT_EQ(expired[0].request().id, 2u);
}

TEST(AdmissionQueue, CloseRefusesPushAndDrains)
{
    AdmissionQueue queue(4);
    PendingRequest a(makeRequest(1));
    EXPECT_TRUE(queue.tryPush(a));
    queue.close();
    PendingRequest b(makeRequest(2));
    EXPECT_FALSE(queue.tryPush(b));

    std::vector<PendingRequest> out;
    std::vector<PendingRequest> expired;
    // Queued items remain poppable after close...
    EXPECT_TRUE(queue.popBatch(4, &out, &expired));
    EXPECT_EQ(out.size() + expired.size(), 1u);
    // ...and once empty, popBatch signals the consumer to exit.
    out.clear();
    expired.clear();
    EXPECT_FALSE(queue.popBatch(4, &out, &expired));
}

// --- Batcher ----------------------------------------------------------

nn::ModelConfig
serveModelConfig()
{
    nn::ModelConfig config;
    config.num_layers = 2;
    config.feature_dim = 6;
    config.hidden_dim = 8;
    config.num_classes = 3;
    return config;
}

std::vector<PendingRequest>
pendingBatch(std::size_t count)
{
    std::vector<PendingRequest> pending;
    for (std::size_t i = 0; i < count; ++i)
        pending.emplace_back(makeRequest(i + 1));
    return pending;
}

TEST(Batcher, ChunksByMaxBatch)
{
    Batcher batcher(serveModelConfig(), {4, 6}, /*max_batch=*/3,
                    /*byte_budget=*/0);
    auto plans = batcher.plan(pendingBatch(8));
    ASSERT_EQ(plans.size(), 3u);
    EXPECT_EQ(plans[0].requests.size(), 3u);
    EXPECT_EQ(plans[1].requests.size(), 3u);
    EXPECT_EQ(plans[2].requests.size(), 2u);
    // Order preserved across the chunk boundary.
    EXPECT_EQ(plans[0].requests[0].request().id, 1u);
    EXPECT_EQ(plans[2].requests[1].request().id, 8u);
    // Plan ids increase in planning order.
    EXPECT_LT(plans[0].id, plans[1].id);
    EXPECT_LT(plans[1].id, plans[2].id);
}

TEST(Batcher, ChunksByByteBudget)
{
    Batcher probe(serveModelConfig(), {4, 6}, 32, 0);
    const std::uint64_t per_request = probe.estimateRequestBytes();
    ASSERT_GT(per_request, 0u);

    // Budget for exactly two requests: plans of size <= 2 even though
    // max_batch would allow far more.
    Batcher batcher(serveModelConfig(), {4, 6}, /*max_batch=*/32,
                    /*byte_budget=*/2 * per_request);
    auto plans = batcher.plan(pendingBatch(5));
    ASSERT_EQ(plans.size(), 3u);
    EXPECT_EQ(plans[0].requests.size(), 2u);
    EXPECT_EQ(plans[1].requests.size(), 2u);
    EXPECT_EQ(plans[2].requests.size(), 1u);
    for (const BatchPlan &plan : plans)
        EXPECT_LE(plan.estimated_bytes, 2 * per_request);
}

TEST(Batcher, PlanIsDeterministic)
{
    auto shape = [](const std::vector<BatchPlan> &plans) {
        std::vector<std::pair<std::size_t, std::uint64_t>> out;
        for (const BatchPlan &plan : plans)
            out.emplace_back(plan.requests.size(),
                             plan.estimated_bytes);
        return out;
    };
    Batcher first(serveModelConfig(), {4, 6}, 4, 0);
    Batcher second(serveModelConfig(), {4, 6}, 4, 0);
    // The same pending sequence must produce the same plan shapes
    // regardless of which batcher instance (or run) planned it.
    EXPECT_EQ(shape(first.plan(pendingBatch(11))),
              shape(second.plan(pendingBatch(11))));
}

// --- forwardInference parity ------------------------------------------

sampling::MicroBatch
datasetBatch(const graph::Dataset &data, std::size_t seeds_count,
             graph::NodeList *inputs)
{
    sampling::NeighborSampler sampler({4, 6});
    util::Rng rng(17);
    graph::NodeList seeds;
    for (std::size_t i = 0; i < seeds_count; ++i)
        seeds.push_back(static_cast<graph::NodeId>(
            (i * 37) % data.graph().numNodes()));
    auto sg = sampler.sample(data.graph(), seeds, rng);
    graph::NodeList locals(seeds.size());
    for (std::size_t i = 0; i < locals.size(); ++i)
        locals[i] = static_cast<graph::NodeId>(i);
    sampling::FastBlockGenerator generator;
    auto mb = generator.generate(sg, locals);
    *inputs = mb.inputNodes();
    return mb;
}

/** Bitwise comparison of forward() and forwardInference() for one
 *  architecture at one kernel thread count. */
void
expectParity(const nn::ModelConfig &config, std::size_t threads)
{
    tensor::kernels::KernelConfig kernels;
    kernels.threads = threads;
    tensor::kernels::setConfig(kernels);

    auto data = graph::loadDataset(graph::DatasetId::Cora, 42, 0.25);
    nn::ModelConfig sized = config;
    sized.feature_dim = data.featureDim();
    sized.num_classes = data.numClasses();
    nn::GnnModel model(sized, /*seed=*/5);

    graph::NodeList inputs;
    auto mb = datasetBatch(data, 24, &inputs);
    nn::Tensor feats = train::loadFeatures(data, inputs);

    nn::Tensor trained = model.forward(mb, feats);
    nn::Tensor served = model.forwardInference(mb, feats);
    ASSERT_EQ(trained.rows(), served.rows());
    ASSERT_EQ(trained.cols(), served.cols());
    EXPECT_EQ(std::memcmp(trained.data(), served.data(),
                          trained.size() * sizeof(float)),
              0)
        << "threads=" << threads;

    tensor::kernels::setConfig(tensor::kernels::KernelConfig{});
}

TEST(ForwardInference, SageBitwiseParity)
{
    nn::ModelConfig config = serveModelConfig();
    for (std::size_t threads : {1, 4}) {
        config.aggregator = nn::AggregatorKind::Mean;
        expectParity(config, threads);
        config.aggregator = nn::AggregatorKind::Lstm;
        expectParity(config, threads);
    }
}

TEST(ForwardInference, GcnBitwiseParity)
{
    nn::ModelConfig config = serveModelConfig();
    config.arch = nn::ModelArch::Gcn;
    for (std::size_t threads : {1, 4})
        expectParity(config, threads);
}

TEST(ForwardInference, GatBitwiseParity)
{
    // Cora has 7 classes, so multi-head configs are out (heads must
    // divide every layer's output width); single-head still exercises
    // the full attention path.
    nn::ModelConfig config = serveModelConfig();
    config.arch = nn::ModelArch::Gat;
    config.num_heads = 1;
    for (std::size_t threads : {1, 4})
        expectParity(config, threads);
}

// --- Server end-to-end --------------------------------------------------

ServeOptions
serverOptions(const graph::Dataset &data)
{
    ServeOptions options;
    options.model_kind = train::ModelKind::Sage;
    options.model = serveModelConfig();
    options.model.feature_dim = data.featureDim();
    options.model.num_classes = data.numClasses();
    options.fanouts = {4, 6};
    options.max_batch = 8;
    options.deadline_ms = 60000.0; // effectively no deadline
    options.prep_threads = 2;
    options.workers = 2;
    options.seed = 5;
    return options;
}

TEST(Server, AnswersEveryRequest)
{
    auto data = graph::loadDataset(graph::DatasetId::Cora, 42, 0.25);
    Server server(serverOptions(data), data);

    std::vector<std::future<InferenceResponse>> futures;
    for (std::size_t i = 0; i < 40; ++i)
        futures.push_back(server.submit(static_cast<graph::NodeId>(
            (i * 13) % data.graph().numNodes())));
    for (auto &future : futures) {
        auto response = future.get();
        EXPECT_EQ(response.status, ResponseStatus::Ok);
        EXPECT_GE(response.predicted_class, 0);
        EXPECT_LT(response.predicted_class, data.numClasses());
        EXPECT_TRUE(response.deadline_met);
        EXPECT_GE(response.latency_ms, response.queue_ms);
    }
    server.shutdown();

    const ServeSnapshot snap = server.stats();
    EXPECT_EQ(snap.submitted, 40u);
    EXPECT_EQ(snap.completed, 40u);
    EXPECT_EQ(snap.shed, 0u);
    EXPECT_EQ(snap.expired, 0u);
    EXPECT_EQ(snap.errors, 0u);
    EXPECT_EQ(snap.deadline_misses, 0u);
    EXPECT_EQ(snap.shed_rate, 0.0);
    EXPECT_GT(snap.batches, 0u);
}

TEST(Server, ZeroDeadlineExpiresQueuedRequests)
{
    auto data = graph::loadDataset(graph::DatasetId::Cora, 42, 0.25);
    ServeOptions options = serverOptions(data);
    // Every request's deadline equals its submit time, so it has
    // always passed by the time the batcher drains the queue.
    options.deadline_ms = 0.0;
    Server server(options, data);

    std::vector<std::future<InferenceResponse>> futures;
    for (std::size_t i = 0; i < 16; ++i)
        futures.push_back(server.submit(static_cast<graph::NodeId>(i)));
    std::size_t expired = 0;
    for (auto &future : futures)
        if (future.get().status == ResponseStatus::Expired)
            ++expired;
    server.shutdown();

    EXPECT_EQ(expired, 16u);
    EXPECT_EQ(server.stats().expired, 16u);
    EXPECT_EQ(server.stats().completed, 0u);
}

TEST(Server, OutOfRangeSeedFails)
{
    auto data = graph::loadDataset(graph::DatasetId::Cora, 42, 0.25);
    Server server(serverOptions(data), data);
    auto response =
        server
            .submit(static_cast<graph::NodeId>(
                data.graph().numNodes() + 100))
            .get();
    EXPECT_EQ(response.status, ResponseStatus::Failed);
    server.shutdown();
    EXPECT_EQ(server.stats().errors, 1u);
}

TEST(Server, ShutdownFailsStragglersInsteadOfHanging)
{
    auto data = graph::loadDataset(graph::DatasetId::Cora, 42, 0.25);
    auto server = std::make_unique<Server>(serverOptions(data), data);
    std::vector<std::future<InferenceResponse>> futures;
    for (std::size_t i = 0; i < 8; ++i)
        futures.push_back(server->submit(static_cast<graph::NodeId>(i)));
    // Destroy the server immediately; every future must still
    // resolve (Ok for whatever drained, Failed for the rest) —
    // never a broken promise.
    server.reset();
    for (auto &future : futures) {
        auto response = future.get();
        EXPECT_TRUE(response.status == ResponseStatus::Ok ||
                    response.status == ResponseStatus::Failed ||
                    response.status == ResponseStatus::Expired);
    }
}

} // namespace
} // namespace buffalo::serve
