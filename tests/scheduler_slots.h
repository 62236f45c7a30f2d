/**
 * @file
 * Outcome slots for tests that drive a bare serve::Scheduler.
 *
 * Every Done request completes through an OutcomeSlot, which
 * AsyncPipeline normally owns. SchedulerSlots plays that role for a
 * scheduler without executors: it installs itself as the scheduler's
 * recycler and hands out slots from a small slab, so a test
 * completes a job with scheduler.complete(job->id, slots.take()).
 */

#ifndef FC_TESTS_SCHEDULER_SLOTS_H
#define FC_TESTS_SCHEDULER_SLOTS_H

#include <memory>
#include <mutex>
#include <vector>

#include "serve/scheduler.h"

namespace fc::serve {

class SchedulerSlots
{
  public:
    explicit SchedulerSlots(Scheduler &scheduler)
    {
        // The recycler holds the slab, not `this`: consuming a ticket
        // stays safe whichever of the two objects dies first.
        scheduler.setOutcomeRecycler([slab = slab_](OutcomeSlot *slot) {
            std::lock_guard<std::mutex> lock(slab->mutex);
            slab->free.push_back(slot);
        });
    }

    /** A free slot, recycled or newly created. */
    OutcomeSlot *
    take()
    {
        std::lock_guard<std::mutex> lock(slab_->mutex);
        if (!slab_->free.empty()) {
            OutcomeSlot *slot = slab_->free.back();
            slab_->free.pop_back();
            return slot;
        }
        slab_->all.push_back(std::make_unique<OutcomeSlot>());
        return slab_->all.back().get();
    }

  private:
    struct Slab
    {
        std::mutex mutex;
        std::vector<std::unique_ptr<OutcomeSlot>> all;
        std::vector<OutcomeSlot *> free;
    };

    std::shared_ptr<Slab> slab_ = std::make_shared<Slab>();
};

} // namespace fc::serve

#endif // FC_TESTS_SCHEDULER_SLOTS_H
