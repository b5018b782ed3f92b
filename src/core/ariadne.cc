#include "core/ariadne.hh"

#include <algorithm>

#include "sim/log.hh"
#include "telemetry/journey.hh"
#include "telemetry/telemetry.hh"

namespace ariadne
{

AriadneScheme::AriadneScheme(SwapContext context, AriadneConfig config)
    : SwapScheme(context), cfg(config),
      codec(makeCodec(CodecKind::Lzo)),
      store(context, cfg.zpoolBytes, cfg.flashBytes),
      profiles(cfg.defaultHotInitPages),
      hotOrg(&lruOpCount, profiles), units(cfg),
      stagingBuf(cfg.preDecompEnabled ? PreDecomp::bufferPages : 0)
{
}

SchemeInfo
ariadneSchemeInfo()
{
    SchemeInfo info;
    info.key = "ariadne";
    info.displayName = "Ariadne";
    info.description = "hotness-aware, size-adaptive compressed swap "
                       "(the paper's scheme: HotnessOrg + "
                       "AdaptiveComp + PreDecomp)";
    info.knobs = {
        {"config", "string", "EHL-1K-2K-16K",
         "Table-5 configuration string: scenario (EHL|AL) plus "
         "small/medium/large chunk sizes",
         [](const std::string &value) {
             std::string error;
             if (!AriadneConfig::tryParse(value, &error))
                 throw SchemeError("invalid value for scheme knob "
                                   "'config': " + error);
         }},
        {"zpool_mb", "mb", "3072", "zpool capacity (paper scale)"},
        {"predecomp", "bool", "true",
         "predictive pre-decompression (the D3 ablation axis)"},
        {"hot_init_pages", "u64", "4096",
         "fallback hot-list seed when no profile exists (the D1 "
         "ablation axis)"},
        {"seed_profiles", "bool", "true",
         "seed per-app hot-set profiles from offline data (the D1 "
         "ablation axis)"},
    };
    info.build = [](SwapContext ctx, const SchemeParams &params,
                    double scale, const std::vector<AppProfile> &apps) {
        AriadneConfig ac;
        if (const std::string *text = params.raw("config")) {
            std::string error;
            auto parsed = AriadneConfig::tryParse(*text, &error);
            if (!parsed)
                throw SchemeError("invalid value for scheme knob "
                                  "'config': " + error);
            ac = *parsed;
        }
        ac.zpoolBytes = scaledBytes(
            params.getMiB("zpool_mb", ac.zpoolBytes), scale);
        ac.flashBytes = scaledBytes(ac.flashBytes, scale);
        ac.preDecompEnabled =
            params.getBool("predecomp", ac.preDecompEnabled);
        ac.defaultHotInitPages = params.getU64(
            "hot_init_pages", ac.defaultHotInitPages);
        auto scheme = std::make_unique<AriadneScheme>(ctx, ac);
        // Offline profiling seed: each app's expected hot pages
        // (§4.2). Apps left unseeded start from hot_init_pages.
        if (params.getBool("seed_profiles", true)) {
            for (const AppProfile &p : apps) {
                auto hot_pages = static_cast<std::size_t>(
                    p.hotFraction *
                    static_cast<double>(p.anonBytes10s) * scale /
                    static_cast<double>(pageSize));
                scheme->seedProfile(
                    p.uid, std::max<std::size_t>(1, hot_pages));
            }
        }
        return scheme;
    };
    return info;
}

void
AriadneScheme::seedProfile(AppId uid, std::size_t hot_pages)
{
    profiles.seed(uid, hot_pages);
}

std::vector<PageKey>
AriadneScheme::predictedHotSet(AppId uid) const
{
    return hotOrg.predictedHotSet(uid);
}

void
AriadneScheme::onAdmit(PageMeta &page)
{
    hotOrg.admit(page, ctx.clock.now());
}

void
AriadneScheme::onAccess(PageMeta &page)
{
    hotOrg.touchResident(page, ctx.clock.now());
    firePrediction(page);
}

void
AriadneScheme::onRelaunchStart(AppId uid)
{
    hotOrg.beginRelaunch(uid, ctx.clock.now());
}

void
AriadneScheme::onRelaunchEnd(AppId uid)
{
    hotOrg.endRelaunch(uid);
}

void
AriadneScheme::onBackground(AppId uid)
{
    if (cfg.excludeHotList)
        return;
    // AL scenario (§5): all lists are compressed. Like the vendors'
    // proactive compression (§2.3), the backgrounded app's hot list
    // is compressed too — at SmallSize, so the relaunch decompresses
    // it fast and PreDecomp chains hide most of the latency.
    Tick before = ctx.cpu.grandTotal();
    while (PageMeta *victim = hotOrg.popVictim(uid, Hotness::Hot))
        compressUnit({victim}, Hotness::Hot, /*synchronous=*/false);
    bgReclaimNs += ctx.cpu.grandTotal() - before;
}

void
AriadneScheme::compressUnit(std::vector<PageMeta *> batch, Hotness level,
                            bool synchronous)
{
    panicIf(batch.empty(), "empty compression batch");
    AppId uid = batch.front()->key.uid;
    std::size_t chunk = units.chunkFor(level);
    std::size_t in_bytes = batch.size() * pageSize;

    std::vector<PageRef> refs;
    refs.reserve(batch.size());
    for (PageMeta *p : batch)
        refs.push_back(PageRef{p->key, p->version});
    std::size_t csize = ctx.compressor.compressedSize(refs, *codec, chunk);

    auto moved = [this](std::uint64_t id, FlashSlot slot) {
        CompUnit &u = units.unit(id);
        for (PageMeta *p : u.pages) {
            stagingBuf.invalidate(*p);
            if (slot == invalidFlashSlot) {
                losePage(*p);
                continue;
            }
            telemetry::journeyMark(p->key.uid, p->key.pfn,
                                   telemetry::JourneyStep::Writeback,
                                   ctx.clock.now(), u.csize);
            p->location = PageLocation::Flash;
            p->flashSlot = slot;
        }
        if (slot == invalidFlashSlot)
            units.destroy(id); // swap space exhausted: data loss
        else
            u.object = invalidObject;
    };
    if (!store.makeRoom(csize, synchronous, moved)) {
        for (PageMeta *p : batch) {
            losePage(*p);
            ctx.dram.release(1);
        }
        return;
    }

    UnitId id = units.create(std::move(batch), chunk, csize, level,
                             invalidObject);
    CompUnit &u = units.unit(id);
    // Cold data is swapped out first (§4.2 eviction policy).
    u.object = store.put(csize, id,
                         level == Hotness::Cold
                             ? CompressedStore::SpillClass::First
                             : CompressedStore::SpillClass::Later);

    for (PageMeta *p : u.pages) {
        telemetry::journeyMark(p->key.uid, p->key.pfn,
                               telemetry::JourneyStep::Zram,
                               ctx.clock.now(), csize);
        p->location = PageLocation::Zpool;
        if (observer)
            observer->onZpoolPut(*p);
        if (p->predictionArmed) {
            pendingPredictions.erase(p);
            p->predictionArmed = false;
        }
    }

    chargeCompression(uid, codec->cost(), chunk, in_bytes, csize,
                      synchronous);
    ctx.dram.release(u.pages.size());
}

std::size_t
AriadneScheme::reclaim(std::size_t pages, bool direct)
{
    if (direct)
        ++directRuns;
    std::size_t freed = 0;

    while (freed < pages) {
        // 1. Cold victims, batched into large multi-page units.
        if (PageMeta *victim = hotOrg.popVictim(Hotness::Cold)) {
            std::vector<PageMeta *> batch{victim};
            while (batch.size() < cfg.coldUnitPages()) {
                PageMeta *next = hotOrg.peekVictim(Hotness::Cold);
                if (!next || next->key.uid != victim->key.uid)
                    break;
                batch.push_back(hotOrg.popVictim(Hotness::Cold));
            }
            freed += batch.size();
            compressUnit(std::move(batch), Hotness::Cold, direct);
            continue;
        }
        // 2. Warm victims, one page per medium-chunk unit.
        if (PageMeta *victim = hotOrg.popVictim(Hotness::Warm)) {
            compressUnit({victim}, Hotness::Warm, direct);
            ++freed;
            continue;
        }
        // 3. Hot victims: normal in AL mode; emergency-only in EHL.
        if (!cfg.excludeHotList || direct) {
            if (PageMeta *victim = hotOrg.popVictim(Hotness::Hot)) {
                compressUnit({victim}, Hotness::Hot, direct);
                ++freed;
                continue;
            }
        }
        break;
    }
    chargeLruOps();
    return freed;
}

void
AriadneScheme::residentizeUnit(CompUnit &unit, PageMeta *hit)
{
    Tick now = ctx.clock.now();
    for (PageMeta *p : unit.pages) {
        allocateResident();
        p->location = PageLocation::Resident;
        p->objectId = invalidObject;
        p->flashSlot = invalidFlashSlot;
        if (p == hit) {
            hotOrg.placeAfterSwapIn(*p, now);
        } else {
            telemetry::journeyMark(p->key.uid, p->key.pfn,
                                   telemetry::JourneyStep::Resident,
                                   now);
            hotOrg.placeColdSibling(*p, now);
        }
        ctx.activity.dramBytes += pageSize;
    }
}

void
AriadneScheme::armPrediction(PageMeta &page, ZObjectId next)
{
    if (next == invalidObject)
        return;
    // Handles are recycled, sectors never are: by the time the page is
    // touched, `next` may have left the zpool and its handle gone to
    // another object.
    pendingPredictions[&page] = store.zpool().sectorOf(next);
    page.predictionArmed = true;
}

void
AriadneScheme::firePrediction(PageMeta &page)
{
    // Runs on every resident touch: the page's flag keeps the common
    // path to one branch instead of a hash lookup.
    if (!page.predictionArmed)
        return;
    page.predictionArmed = false;
    auto it = pendingPredictions.find(&page);
    panicIf(it == pendingPredictions.end(), "armed page has no prediction");
    Sector next = it->second;
    pendingPredictions.erase(it);
    tryStage(store.zpool().objectAt(next));
}

void
AriadneScheme::tryStage(ZObjectId obj)
{
    const Zpool &pool = store.zpool();
    if (obj == invalidObject || !pool.live(obj))
        return;
    UnitId id = pool.cookie(obj);
    if (!units.live(id))
        return;
    CompUnit &u = units.unit(id);
    ZObjectId next = pool.nextInSectorOrder(obj);

    if (u.pages.size() == 1) {
        // Single page: decompress into the staging buffer ("we
        // pre-decompress only one compressed page at a time", §4.4).
        PageMeta *p = u.pages.front();
        if (p->location != PageLocation::Zpool)
            return;
        if (stagingBuf.stage(*p)) {
            telemetry::journeyMark(p->key.uid, p->key.pfn,
                                   telemetry::JourneyStep::Staged,
                                   ctx.clock.now());
            // Speculative decompression runs off the critical path:
            // CPU is charged, the faulting task's clock is not.
            chargeDecompression(p->key.uid, codec->cost(),
                                u.chunkBytes, pageSize, u.csize,
                                /*synchronous=*/false);
            armPrediction(*p, next);
        }
        return;
    }

    // Multi-page (cold) unit: pre-swap it — decompress and write all
    // pages back to main memory ahead of use. Only when memory is
    // comfortably free; speculation must not force reclaim.
    if (ctx.dram.freePages() <
        u.pages.size() + ctx.dram.lowWatermarkPages()) {
        return;
    }
    for (PageMeta *p : u.pages) {
        if (p->location != PageLocation::Zpool)
            return;
    }
    AppId uid = u.pages.front()->key.uid;
    store.discard(u.object);
    u.object = invalidObject;
    chargeDecompression(uid, codec->cost(), u.chunkBytes,
                        u.uncompressedBytes(), u.csize,
                        /*synchronous=*/false);
    residentizeUnit(u, nullptr);
    // Chain the speculation through the first touch of any page.
    for (PageMeta *p : u.pages)
        armPrediction(*p, next);
    units.destroy(id);
    ++preSwapCount;
}

SwapInResult
AriadneScheme::swapIn(PageMeta &page)
{
    telemetry::ScopedSpan span(CompressedStore::swapInSpan());
    SwapInResult res;
    Stopwatch sw(ctx.clock);
    AppId uid = page.key.uid;

    if (page.location == PageLocation::Staged) {
        // PreDecomp hit: only a page copy plus bookkeeping remains.
        stagingBuf.consume(page);
        UnitId id = page.objectId;
        CompUnit &u = units.unit(id);
        ZObjectId next = store.zpool().nextInSectorOrder(u.object);
        store.discard(u.object);
        units.destroy(id);

        // The decompression already ran off the critical path and the
        // page is mapped into the swap cache; the access itself is
        // billed by the system's touch cost. Only the copy remains.
        Tick t = ctx.timing.params().dramPageCopyNs;
        ctx.cpu.charge(CpuRole::FaultPath, t);
        ctx.clock.advance(t);

        allocateResident();
        page.location = PageLocation::Resident;
        page.objectId = invalidObject;
        hotOrg.placeAfterSwapIn(page, ctx.clock.now());
        ctx.activity.dramBytes += pageSize;
        if (cfg.preDecompEnabled)
            tryStage(next);
        res.stagedHit = true;
        res.latencyNs = sw.elapsed();
        return res;
    }

    panicIf(page.location != PageLocation::Zpool &&
                page.location != PageLocation::Flash,
            "AriadneScheme::swapIn on resident/lost page");
    Tick fault = ctx.timing.params().majorFaultBaseNs;
    ctx.cpu.charge(CpuRole::FaultPath, fault);
    ctx.clock.advance(fault);

    UnitId id = page.objectId;
    CompUnit &u = units.unit(id);
    ZObjectId next = invalidObject;
    if (page.location == PageLocation::Zpool) {
        faultsPerLevel[static_cast<std::size_t>(
            u.levelAtCompression)] += 1;
        // Find the speculation candidate before the object vanishes.
        next = store.zpool().nextInSectorOrder(u.object);
        store.swapInZpool(u.object, observer);
        u.object = invalidObject;
    } else {
        store.swapInFlash(page.flashSlot,
                          (u.csize + pageSize - 1) / pageSize);
        res.fromFlash = true;
    }
    chargeDecompression(uid, codec->cost(), u.chunkBytes,
                        u.uncompressedBytes(), u.csize, true);
    residentizeUnit(u, &page);
    units.destroy(id);
    if (cfg.preDecompEnabled)
        tryStage(next);

    chargeLruOps();
    res.latencyNs = sw.elapsed();
    return res;
}

} // namespace ariadne
