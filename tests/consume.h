/**
 * @file
 * consume(): the one-line form of waitInto for tests that read a
 * field or two of a ticket's outcome.
 */

#ifndef FC_TESTS_CONSUME_H
#define FC_TESTS_CONSUME_H

#include "serve/scheduler.h"

namespace fc::serve {

/** Consume @p ticket into a fresh outcome (Scheduler or
 *  AsyncPipeline). */
template <typename Server>
RequestOutcome
consume(Server &server, Ticket ticket)
{
    RequestOutcome out;
    server.waitInto(ticket, out);
    return out;
}

} // namespace fc::serve

#endif // FC_TESTS_CONSUME_H
