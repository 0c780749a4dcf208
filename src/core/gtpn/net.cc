#include "core/gtpn/net.hh"

namespace hsipc::gtpn
{

PlaceId
PetriNet::addPlace(std::string name, int tokens)
{
    hsipc_assert(tokens >= 0);
    places.push_back(Place{std::move(name), tokens});
    reshaped();
    return static_cast<PlaceId>(places.size() - 1);
}

TransId
PetriNet::addTransition(std::string name, Expr delay, Expr frequency,
                        std::string resource)
{
    hsipc_assert(delay && frequency);
    transitions.push_back(Transition{std::move(name), std::move(delay),
                                     std::move(frequency),
                                     std::move(resource), {}, {}});
    freqRevs.push_back(0);
    reshaped();
    return static_cast<TransId>(transitions.size() - 1);
}

TransId
PetriNet::addTransition(std::string name, double delay, double frequency,
                        std::string resource)
{
    return addTransition(std::move(name), constant(delay),
                         constant(frequency), std::move(resource));
}

void
PetriNet::inputArc(PlaceId p, TransId t, int multiplicity)
{
    hsipc_assert(p >= 0 && static_cast<std::size_t>(p) < places.size());
    hsipc_assert(t >= 0 && static_cast<std::size_t>(t) < transitions.size());
    hsipc_assert(multiplicity > 0);
    transitions[static_cast<std::size_t>(t)].inputs
        .push_back(Arc{p, multiplicity});
    reshaped();
}

void
PetriNet::outputArc(TransId t, PlaceId p, int multiplicity)
{
    hsipc_assert(p >= 0 && static_cast<std::size_t>(p) < places.size());
    hsipc_assert(t >= 0 && static_cast<std::size_t>(t) < transitions.size());
    hsipc_assert(multiplicity > 0);
    transitions[static_cast<std::size_t>(t)].outputs
        .push_back(Arc{p, multiplicity});
    reshaped();
}

void
PetriNet::setFrequency(TransId t, Expr freq)
{
    hsipc_assert(freq);
    transitions[static_cast<std::size_t>(t)].frequency = std::move(freq);
    freqRevs[static_cast<std::size_t>(t)] = ++rev;
}

void
PetriNet::setDelay(TransId t, Expr delay)
{
    hsipc_assert(delay);
    transitions[static_cast<std::size_t>(t)].delay = std::move(delay);
    reshaped();
}

std::vector<int>
PetriNet::initialMarking() const
{
    std::vector<int> m(places.size());
    for (std::size_t i = 0; i < places.size(); ++i)
        m[i] = places[i].initialTokens;
    return m;
}

PlaceId
PetriNet::findPlace(const std::string &name) const
{
    for (std::size_t i = 0; i < places.size(); ++i) {
        if (places[i].name == name)
            return static_cast<PlaceId>(i);
    }
    hsipc_panic("no such place: " + name);
}

TransId
PetriNet::findTransition(const std::string &name) const
{
    for (std::size_t i = 0; i < transitions.size(); ++i) {
        if (transitions[i].name == name)
            return static_cast<TransId>(i);
    }
    hsipc_panic("no such transition: " + name);
}

} // namespace hsipc::gtpn
